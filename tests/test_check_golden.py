"""Golden digests of ``pm check``: every observer's v, residual and verdict, byte for byte.

Each case runs ``pm check`` on one catalog game or one committed game file and
records the SHA-256 of its stdout with the exit code.  That document lists
every ordered neighbor pair's observer ``v`` and ``residual`` and the game's
``v_bar``, which the run digests in ``test_golden.py`` see only through the
indices the learners sample.  ``classification.json``, which
``run_experiment`` writes when it refuses a game, is pinned on
``label_efficient`` by the SHA-256 of its bytes.

To regenerate after an intended change of the observers, run
``python tests/test_check_golden.py`` and paste the printed tables.
"""

import contextlib
import hashlib
import io
import os

import pytest

from pmsim import ExperimentConfig, NotLocallyObservableError, catalog, run_experiment
from pmsim.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# run from the data directory, so each document names the bare file
GAMES = [entry.name for entry in catalog()] + sorted(
    name for name in os.listdir(DATA) if name.endswith(".json"))

CHECK_DIGESTS = {
    "bandit_mp":
        ("08164df4d1fa7bb24261431119c8a9160c34c7061143f71e6ab230cb844b3208", 0),
    "bandit_mp_random":
        ("b5279a4b726bebedba29dcac55efdd6ee21cf2ab1481bd282a8b7d39458d3ec0", 0),
    "apple_tasting":
        ("5813af284cfc7e581464ac2ae8c0b44d4d4d27c5d422a5883426b6436a2e3f6a", 0),
    "label_efficient":
        ("e9696660283c593c8e8fae959a6c89e10383e7e6fcf65f527ff0bd3c5e353781", 3),
    "full_info_3x3":
        ("a5e815cb6e6b525648f05f634d7f42de6dcff303a43983e879a0df2c5c1b0488", 0),
    "bandit3.json":
        ("86bfbdb3c74538487131c8ebac48f29e898c4ff4814eb57c6cc2b598cc6b4d1e", 0),
    "noisy3.json":
        ("0cee13a7c7d1bf8b6bafb826e7e62c1e29684208e1541b78c31699f72dcb4e95", 0),
    "noisy_voronoi_n8.json":
        ("fe79ba5fbad29a280f82dcdbc72f8b134f5bd4640c67f08cf83ece88ee76d1f4", 0),
    "voronoi_n16.json":
        ("c7fecd4e0762add1e0edadd590d27bd4eea2b6250ca76fbb31318fabfb54626c", 0),
    "voronoi_n16_lpfault_a.json":
        ("91bda04ad5a62436c8f32ef931bf22afe8c1cb16b13bccc0c42a942941ff9f6d", 0),
    "voronoi_n16_lpfault_b.json":
        ("b2e5fbaa6ebf44875edb114e944f0442cd057cfa18d602fe27710445bd03c385", 0),
}

CLASSIFICATION_DIGEST = "55b5663e95f13d750caec9c18806103d5b6a88dba943e3b1e1fdc653e0a0ddf4"


def check_digest(name: str) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", name])
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def classification_digest(out_dir: str) -> str:
    config = ExperimentConfig(game="label_efficient", horizons=[10], seeds=1, out_dir=out_dir)
    with pytest.raises(NotLocallyObservableError):
        run_experiment(config)
    with open(os.path.join(out_dir, "classification.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_every_game_is_pinned():
    assert sorted(CHECK_DIGESTS) == sorted(GAMES)


@pytest.mark.parametrize("name", GAMES)
def test_check_digest(name, monkeypatch):
    monkeypatch.chdir(DATA)
    assert check_digest(name) == CHECK_DIGESTS[name]


def test_classification_digest(tmp_path):
    assert classification_digest(str(tmp_path)) == CLASSIFICATION_DIGEST


if __name__ == "__main__":
    import tempfile

    os.chdir(DATA)
    for name in GAMES:
        digest, code = check_digest(name)
        print(f'    "{name}":\n        ("{digest}", {code}),')
    print()
    with tempfile.TemporaryDirectory() as tmp:
        print(f'CLASSIFICATION_DIGEST = "{classification_digest(tmp)}"')
