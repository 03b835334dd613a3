"""Golden digests: the CSV and summary.json bytes of fixed runs, and the learners' bits.

Each case is one ``run_experiment`` call with every input fixed (game,
adversary, horizons, seeds, eta, gamma, checkpoints).  Its digest is the
SHA-256 over the bytes of every CSV it writes, in ``csv_paths`` order, then
of ``summary.json``.  A refactor that changes any draw, any summation order
or any formatting of the output changes a digest.

Those bytes see the learners' ``x`` and ``q`` only through the indices they
sample, so a last-bit change in the learner can leave them unchanged.  Each
learner-state case runs one :class:`~pmsim.Engine` built from the game's
gated observability report, adversary, horizon and seed, and its digest is the SHA-256 over the
``float.hex`` of every learner's ``x``, ``q`` and ``f``, in action order, then
of the final ``p``, ``eta`` and ``gamma``.

To regenerate after an intended output change, run
``python tests/test_golden.py`` and paste the two printed tables.
"""

import hashlib
import os

import pytest
from conftest import gated_report

from pmsim import (Engine, EngineConfig, ExperimentConfig, make_adversary, resolve_game,
                   run_experiment)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# horizon 60 is not a checkpoint; the list is unsorted, repeats 10 and runs past T
CHECKPOINTS = [200, 10, 50, 10, 500]

CASES = {
    **{f"{game}-{adv}": dict(game=game, adversary=adv, horizons=[60, 200], seeds=2,
                             checkpoints=CHECKPOINTS)
       for game in ("bandit_mp", "bandit_mp_random", "apple_tasting", "full_info_3x3")
       for adv in ("uniform", "adaptive")},
    "iid": dict(game="bandit_mp_random", adversary="iid:0.3,0.7", horizons=[150],
                seeds=[4, 9], checkpoints=[75, 150]),
    "fixed": dict(game="apple_tasting", adversary="fixed:" + ",".join("01101"[t % 5]
                                                                      for t in range(120)),
                  horizons=[40, 120], seeds=1, checkpoints=[40, 120]),
    "eta-gamma": dict(game="bandit_mp", adversary="adaptive:16", horizons=[100, 300],
                      seeds=[2], eta=0.05, gamma=0.1, checkpoints=[100, 300]),
    "every-round": dict(game="full_info_3x3", adversary="adaptive", horizons=[250],
                        seeds=[0, 1]),
    # N=3 with every pair's observer split over both blocks, so rounds where
    # the sampled learner's neighbor is played take the importance-weighted branch
    **{f"bandit3-{adv}": dict(game="bandit3.json", adversary=adv, horizons=[300, 2000],
                              seeds=2, checkpoints=[100, 300, 1000, 2000])
       for adv in ("uniform", "adaptive")},
    # random signals with zero-weight symbols, so cumulative signal columns have
    # flat tails; the iid opponent never plays its last outcome
    "noisy3-iid": dict(game="noisy3.json", adversary="iid:0.6,0.4,0", horizons=[100, 400],
                       seeds=2, checkpoints=[50, 100, 400]),
    "noisy3-adaptive": dict(game="noisy3.json", adversary="adaptive", horizons=[100, 400],
                            seeds=2, checkpoints=[50, 100, 400]),
    # run from the data directory so that summary.json records the bare file name
    "voronoi-n16": dict(game="voronoi_n16.json", adversary="adaptive", horizons=[60],
                        seeds=1, checkpoints=[1, 30, 60]),
    # N=8 with noisy signals and neighbor sets of 4 to 8 actions
    "noisy-voronoi-n8-adaptive": dict(game="noisy_voronoi_n8.json", adversary="adaptive",
                                      horizons=[100, 400], seeds=2, checkpoints=[50, 100, 400]),
    "noisy-voronoi-n8-iid": dict(game="noisy_voronoi_n8.json", adversary="iid:0.4,0.3,0.2,0.1",
                                 horizons=[100, 400], seeds=2, checkpoints=[50, 100, 400]),
    # N=16 with neighbor sets of 8 to 15 actions, so the weight total runs the
    # eight-accumulator order of numpy's pairwise sum
    "voronoi-n16-iid": dict(game="voronoi_n16.json", adversary="iid", horizons=[200, 800],
                            seeds=2, checkpoints=[200, 800]),
}

DIGESTS = {
    "bandit_mp-uniform":
        "5aa92df360fcc202a01a8fd5d9e4413ef76ae2f1655489352cd3805422a27d42",
    "bandit_mp-adaptive":
        "7e4484c9ffed8961636463beca2f7360a30265fc71dee5d85ebf3b07f1c5c6a7",
    "bandit_mp_random-uniform":
        "b8c3824018f04b958772abf215c70e981a0977ccb558c53dba883f61d97ea3e0",
    "bandit_mp_random-adaptive":
        "2f887d89bcfd72864518ee108ffcc24c1d31afa746ba7e75bcb257b9db0082c5",
    "apple_tasting-uniform":
        "c4215b3022b2f0e867cf4436b7bcd3f9f6332d684891a34d8b1064afabefc77c",
    "apple_tasting-adaptive":
        "7027198f864699f0ed0f66e40965138a09cc8161b5860e8c239ee11b51fa08b8",
    "full_info_3x3-uniform":
        "d9ce335e4f4e922518d286b77519d02735e4551cd92ec7ba4438b107a186f537",
    "full_info_3x3-adaptive":
        "6b743accad3ad08d7463a2cb9c2c7f9fe63cbab1d9f6998848eba360b28fb3c5",
    "iid":
        "2911a63fcdcaa5345d4af930529eac60e9582ab9b1e679af2768a9c9cc540394",
    "fixed":
        "3b1bef78651cd5d263f9d7dec89f10e0d27867794936e3734990c9a947e16162",
    "eta-gamma":
        "d93b5756d2ca4b6ade473268bd09735ed1ae25ba6df975486e8ebf7c716b2b0a",
    "every-round":
        "86bcb00ecb0156cafe7096203fc10c104771f78e6389467c88d85d11a62001b6",
    "bandit3-uniform":
        "192d3555b239be81283d1f01b457b3c12e4ecea153781319007d38dbf68095a0",
    "bandit3-adaptive":
        "935407084851bd7bfe8abc13540e6b03d973c6ea0a62871c38b397aee6fb6980",
    "noisy3-iid":
        "1db4dd65db34187be0549ce7927dacf07064cd26163687d44faf10ae0bed5915",
    "noisy3-adaptive":
        "25a9a47733bcc906bd99e33cb3a2a25425f58c5238a489e7ce1e5e0190c8883c",
    "voronoi-n16":
        "78f88af09d49cb2e7c6f8d578e85a55f8e89945c6ce53a030587823c53fbb494",
    "noisy-voronoi-n8-adaptive":
        "8d9cee5ce46943d495ed06de7d7c4e61300767e6ae06f1d8ab16dc0b9ed23411",
    "noisy-voronoi-n8-iid":
        "0694b81643e6d475ba29424bf10d192d1828a09faf16866d462465055372a04c",
    "voronoi-n16-iid":
        "41bf107ed8670ed4cdf6fc3aa7675300b4c99e3a5e75471cc09a6fc20b6e7d99",
}

# (game, adversary, horizon, seed): the four observable catalog games and every
# committed game file against the adaptive opponent, and N=16 against iid
STATE_CASES = {
    **{f"{game}-adaptive": (game, "adaptive", 300, 3)
       for game in ("bandit_mp", "bandit_mp_random", "apple_tasting", "full_info_3x3",
                    "bandit3.json", "noisy3.json", "noisy_voronoi_n8.json", "voronoi_n16.json")},
    "voronoi_n16.json-iid": ("voronoi_n16.json", "iid", 400, 5),
}

STATE_DIGESTS = {
    "bandit_mp-adaptive":
        "8dedd54ef76b80c1e7e1c31cc0acd424a0b9c7f09b2c3fcb438aaa01cc67ead6",
    "bandit_mp_random-adaptive":
        "30afde768a065621671a406a8618b1124edae2afb969cdebb1d67cec9e9cd658",
    "apple_tasting-adaptive":
        "cb44ea7c3a85cf662aa47dbe7e76920e14e5497eb5080a1ce3918f719bdc1e82",
    "full_info_3x3-adaptive":
        "e463794a250ff3040a2a6f731d36d2fc13165e2eeece2f07d5707bb8a9ce4544",
    "bandit3.json-adaptive":
        "77b148c409475d2bf1708067fa335bd68c8c514eac962fe991d215bace3f768b",
    "noisy3.json-adaptive":
        "e7f8ec72f9a5f7dcb12dc08db03f9404c6cf9ece96ebdbb70c3e4eb5d3d54ca3",
    "noisy_voronoi_n8.json-adaptive":
        "785b936e4ca802a08251269463f0f7e7fbec78031823042ab46c9173d50fc1a5",
    "voronoi_n16.json-adaptive":
        "827658f1a581c471ba19a4999a3079a1c1319b2bf0c5a98102a7357f3cacd8c8",
    "voronoi_n16.json-iid":
        "11e6117193a7eaacf5d41c511b90052a8b5ff58ee96057b5647f526d7dc41811",
}


def run_digest(name: str, out_dir: str) -> str:
    result = run_experiment(ExperimentConfig(**CASES[name], out_dir=out_dir))
    h = hashlib.sha256()
    for path in result.csv_paths + [result.summary_path]:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def state_digest(name: str) -> str:
    game_name, adversary, horizon, seed = STATE_CASES[name]
    game, _ = resolve_game(os.path.join(DATA, game_name) if game_name.endswith(".json")
                           else game_name)
    engine = Engine(game, make_adversary(adversary, game), horizon, EngineConfig(seed=seed),
                    observers=gated_report(game))
    engine.run()
    h = hashlib.sha256()
    for state in engine.learners:
        for values in (state.x, state.q, state.f):
            h.update(" ".join(float(v).hex() for v in values).encode())
            h.update(b";")
    h.update(" ".join(v.hex() for v in engine.p.tolist() + [engine.eta, engine.gamma]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    assert run_digest(name, str(tmp_path)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STATE_CASES))
def test_learner_state_digest(name):
    assert state_digest(name) == STATE_DIGESTS[name]


if __name__ == "__main__":
    import tempfile

    os.chdir(DATA)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            print(f'    "{name}":\n        "{run_digest(name, os.path.join(tmp, name))}",')
    print()
    for name in STATE_CASES:
        print(f'    "{name}":\n        "{state_digest(name)}",')
