"""Golden trajectories and sessions: pinned sha256 hashes.

Each trajectory case runs `friendcast run --per-actor` for about 2,000
steps and hashes `snapshots.csv`, `summary.csv` and `actors.csv`. The
per-actor table pins every actor's popularity and reputation at every
snapshot, so a change to the session rules or to the equilibrium a
session selects changes a hash. A last-bit change in a payoff that flips
no decision leaves those bytes alone, so the session case also hashes the
raw payoff tensors and post-session states of random small games. A
change that is meant to alter any of them must say why next to the new
hashes.

Regenerate after an intended change with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from friendcast.cli import main
from friendcast.game import StrategyProfile, build_payoff_tensor
from friendcast.knowledge import Ontology
from friendcast.transfer import TransferParams, execute_session
from friendcast.world import World

# Off-diagonal entries of +-1 and of both signs, so that correlated
# beliefs move in both directions and saturate.
SIGNED_ONTOLOGY = [
    [1.0, 0.5, -0.3, 0.0],
    [0.5, 1.0, 0.0, -1.0],
    [-0.3, 0.0, 1.0, 1.0],
    [0.0, -1.0, 0.2, 1.0],
]

CASES = {
    "experts-N1": dict(scenario="experts", seed=1, config={}),
    "trolls-N3": dict(scenario="trolls", seed=2, config={"n_receivers": 3}),
    "defaults-N1": dict(scenario=None, seed=3, config={}),
    "trolls-signed-ontology-N3": dict(
        scenario="trolls",
        seed=4,
        config={"n_assertions": 4, "ontology": SIGNED_ONTOLOGY, "n_receivers": 3},
    ),
    "defaults-signed-ontology-N1": dict(
        scenario=None, seed=5, config={"n_assertions": 4, "ontology": SIGNED_ONTOLOGY}
    ),
    "n300-forget-decay": dict(
        scenario=None,
        seed=6,
        config={"n_actors": 300, "remembrance": 0.999, "popularity_decay": 0.05},
    ),
    # Five receivers comment in a chain across 2^5 feedback cells.
    "trolls-N5": dict(scenario="trolls", seed=8, config={"n_receivers": 5}),
}
STEPS = 2000
SNAPSHOT_EVERY = 100
OUTPUTS = ("snapshots.csv", "summary.csv", "actors.csv")

GOLDEN = {
    "defaults-N1": {
        "snapshots.csv": "e79c6a7b8700706f48c5a8ec43bba41837de82f99c733fa9ea89a4d5786466d0",
        "summary.csv": "70404c16d78e5d2b27ad1acb3925f0c871b672c87e1faa0b23776bb4c6c81044",
        "actors.csv": "8d0c59dcbb189b71a0019febdda645de48c2e1446196c7b53e6e02cdac171e56",
    },
    "defaults-signed-ontology-N1": {
        "snapshots.csv": "973df47d8c8841be60ada0c76d43ff02e269c1b8e578e74c197620f7892f1e59",
        "summary.csv": "798162afe33ae59a7fb8d73a9de315eaf3426d485a2f84b037082707083ecb93",
        "actors.csv": "d62f90e2181a79db87f2c075101479dea9303be85ced69a6ff57e50c1ed9e0eb",
    },
    "experts-N1": {
        "snapshots.csv": "647f7ebbcd783e2ab6d79d6324e6c4d7f724083bbc50713487ef668501be7dc4",
        "summary.csv": "a4153205d4aa4480f47b370f1ae43b4c2aeda4d85185d1c7facf7765185e80e7",
        "actors.csv": "0514a62295276b5807be47f6ed4bbe81aa1199429218390b97000d8e61617782",
    },
    "n300-forget-decay": {
        "snapshots.csv": "e492698aa3fb772379f355cc9376c93f074f35e0494765148003a4206642c7ce",
        "summary.csv": "70f4177092a7502c5fafde990d38359b71501875bf53fbb856c75e7eb5976f7d",
        "actors.csv": "7143c20e34df1d0874ab4321d185607585c7b17896bc83dc95c0c9944954cbfc",
    },
    "trolls-N3": {
        "snapshots.csv": "62d855de78b9ddebf663ee681b499a953ac9ad70972919309fccc132c66174a4",
        "summary.csv": "d8653aaf9e2a6db881809e24896b6d92b577568e429bc1dfdf8560ebc4ba237e",
        "actors.csv": "3dbd90ad78845ad51f11663d4c437a73d9a3f456edf511cd5fbcd59c89b6602c",
    },
    "trolls-N5": {
        "snapshots.csv": "135a682fdf00689f189e83bc1279f91df68872f25785eb3f42b3dcbff99ea9c0",
        "summary.csv": "118f9f33e3e13a17c1ffb56aca76e0ff8546eda3f00e9f0694a9694e7a4bc96d",
        "actors.csv": "d1c67154149d6dbbe63ef7263cef616b956aa642bb8b7b0472724dfcf6936cb8",
    },
    "trolls-signed-ontology-N3": {
        "snapshots.csv": "bc0b2989ec470bc1b321c22c298ccca084eac21e0e75bbb434689a9dbb38ee9f",
        "summary.csv": "7eec5426a499ccbdc702141edfba39c63182b57e77c74899260ba771380c05d4",
        "actors.csv": "9aae9f84c82fd9dd3c394fa56be8baf5ee3aedaae16734595b96431bddfd0244",
    },
}


def run_hashes(name, tmp_path):
    case = CASES[name]
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(case["config"]))
    out = tmp_path / name
    argv = ["run", "--config", str(config), "--seed", str(case["seed"]), "--out", str(out),
            "--steps", str(STEPS), "--snapshot-every", str(SNAPSHOT_EVERY), "--per-actor"]
    if case["scenario"]:
        argv += ["--scenario", case["scenario"]]
    assert main(argv) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in OUTPUTS}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trajectory(name, tmp_path):
    assert run_hashes(name, tmp_path) == GOLDEN[name]


GOLDEN_SESSIONS = "0b7ff5aee300cb5e08e78972988bc591c0590e11a0d25993c9a06a976e289973"


def session_hash(games=400):
    """Hash every payoff vector and every canonical session's final state.

    The games mix rates, trust and willingness on their bounds with values
    inside them, identity and signed ontologies, and both belief modes.
    """
    digest = hashlib.sha256()
    rng = np.random.default_rng(11)
    for game in range(games):
        n, a_count = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        n_receivers = int(rng.integers(1, min(n - 1, 4) + 1))
        trust = rng.uniform(0, 1, (n, n)) if game % 4 else rng.choice([0.0, 0.5, 1.0], (n, n))
        np.fill_diagonal(trust, 1.0)
        m = np.eye(a_count) if game % 3 == 0 else rng.choice([-1.0, -0.4, 0.0, 0.7, 1.0], (a_count, a_count))
        np.fill_diagonal(m, 1.0)
        world = World(
            knowledge=rng.uniform(0, 1, (n, a_count)),
            belief=rng.uniform(-1, 1, (n, a_count)),
            popularity=rng.uniform(0, 1, n),
            trust=trust,
            personality=rng.dirichlet([1, 1, 1], n),
            willingness=rng.choice([0.0, 1.0, rng.uniform()], n),
            ontology=Ontology(m),
        )
        params = TransferParams(
            remembrance=float(rng.choice([0.0, 1.0, rng.uniform(0.9, 1.0)])),
            trust_history_weight=float(rng.choice([0.0, 1.0, rng.uniform()])),
            popularity_decay=float(rng.choice([0.0, 1.0, rng.uniform(0.0, 0.1)])),
            belief_weight_mode=("transferred", "source")[game % 2],
        )
        ids = rng.permutation(n)
        sender, receivers = int(ids[0]), [int(r) for r in ids[1 : 1 + n_receivers]]
        index = int(rng.integers(a_count))
        tensor = build_payoff_tensor(world, sender, receivers, index, params)
        for profile in StrategyProfile.enumerate_canonical(n_receivers):
            digest.update(np.array(tensor.payoff(profile)).tobytes())
            played = world.copy()
            execute_session(played, sender, receivers, index, profile, params)
            for state in (played.knowledge, played.belief, played.popularity, played.trust):
                digest.update(np.ascontiguousarray(state).tobytes())
    return digest.hexdigest()


def test_golden_sessions():
    assert session_hash() == GOLDEN_SESSIONS


if __name__ == "__main__":
    import contextlib
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(sys.stderr):
        hashes = {name: run_hashes(name, Path(scratch)) for name in sorted(CASES)}
    json.dump(hashes, sys.stdout, indent=4)
    print(f"\nGOLDEN_SESSIONS = {session_hash()!r}")
