"""Golden result fingerprints.

Five tiny suites run through the same orchestration as `ace-bench run`:
a maze suite with all four arm kinds on one curated instance, a chain
suite with a standard and a guided EA arm, a chain suite whose guided
runs prune macros and save their models, and that suite again at the
two decay edges, gamma 1.0 and 0.0.  The SHA-256 of their records,
leaving out the wall-clock field (and, for the last three suites, of the
saved model files too), must match the constants below.  One more
constant pins swarm path construction alone: about a hundred
`construct_path` calls over generated mazes, a tight cap, standard and
guided mode with and without macros, and with and without reference
paths.  Another pins the EA's draws alone: seeding, tournaments,
selection and both mutation modes over a maze and two chain alphabets
(4, 6 and 64 atomic operations) at three population sizes.  The last
pins crossover and seeding lengths alone: crossover over edge parent
lengths and genome bounds, and seeded genome lengths under edge
bounds.  A behaviour-neutral change keeps them; a change that moves results must
update them and say why.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

from ace.chain import ChainDomain, ChainSpec
from ace.cli import SuiteSpec, orchestrate
from ace.ea import EaExplorer, EaParams, _tournament, crossover, mutate, select
from ace.gca import PairTable
from ace.loop import ExperimentConfig, Trajectory
from ace.maze import MazeDomain, generate_maze
from ace.pso import Particle, PsoParams, PsoState, construct_path

from helpers import make_model

MAZE_FINGERPRINT = "9cf905963f1e3e732d6427e5ea332004fbecb5f5a84fe1eb7efeb8189814f4db"
CHAIN_FINGERPRINT = "059970c1f0ffd26a76b07f7c3a5061e2b5d411c332ae0e204b7b3322e9149e13"
PRUNING_FINGERPRINT = "c20a291bc4aa2c74d3be6a8478220f06badeffd109ef3257fd2ec3d38f66873c"
FULL_DECAY_FINGERPRINT = "4384f91d7dc0281c1e0b40c5ec04dd00b05fe79d9c0f17270d934070c76c7307"
NO_DECAY_FINGERPRINT = "e1634d61f9065adaf755c1fab9358b88bcb459c655a70dfcff38855a4e826af0"
PATH_FINGERPRINT = "1eab4be5aa31721a333eda9636c48e6cc77f2e0205d393818891069e00f1aacf"
EA_DRAWS_FINGERPRINT = "67b04108f4b575d88848f5b9367bee177564f7a0301c23091937c5d9cfe8445a"
CROSSOVER_DRAWS_FINGERPRINT = "42217802f3344cf654ca53ad2bb70274d8b18eb4f5693dcc09d0f34828a5b3cc"

GCA = {
    "tau": 0.25, "epsilon": 0.1, "lambda": 1e-05, "gamma": 0.2,
    "theta_w": 0.3, "theta_s": 3, "theta_l": 1.4, "theta_eff": 0.1,
}
PSO = {
    "inertia": 0.4, "cognitive": 1.0, "social": 1.0, "heuristic_weight": 5.0,
    "guidance_weight": 3.0, "dead_end_mode": "terminate",
}
EA = {
    "crossover_rate": 0.5, "mutation_rate": 0.08, "elitism_fraction": 0.1,
    "tournament_size": 3, "min_len": 20, "max_len": 450,
}

MAZE_SUITE = {
    "suite_seed": 11,
    "runs_per_arm": 2,
    "run": {
        "population_size": 10, "max_generations": 12, "abstraction_period": 3,
        "max_new_macros_per_scan": 2, "prune_min_uses": 5,
    },
    "gca": GCA,
    "domain": {
        "kind": "maze", "width": 15, "height": 15, "path_slack": 6,
        "instances": [{"connectivity": 0.0, "maze_seed": 1007}],
    },
    "arms": [
        {"name": "std-pso", "explorer": "pso", "guided": False, "pso": PSO},
        {"name": "ace-pso", "explorer": "pso", "guided": True, "pso": PSO},
        {"name": "std-ea", "explorer": "ea", "guided": False, "ea": EA},
        {"name": "ace-ea", "explorer": "ea", "guided": True, "ea": EA,
         "gca": {"lambda": 5e-08}},
    ],
}

CHAIN_SUITE = {
    "suite_seed": 5,
    "runs_per_arm": 2,
    "run": {"population_size": 20, "max_generations": 25, "abstraction_period": 5},
    "gca": {"tau": 1.0, "epsilon": 0.15, "lambda": 0.01, "gamma": 0.2},
    "domain": {
        "kind": "chain", "alphabet_size": 6, "sequence_length": 10,
        "target_bigrams": [[0, 1, 5.0], [2, 3, 3.0], [4, 5, 2.0]],
        "noise_penalty": 0.2,
    },
    "arms": [
        {"name": "std-ea", "explorer": "ea", "guided": False,
         "ea": {"crossover_rate": 0.6, "mutation_rate": 0.15, "tournament_size": 2}},
        {"name": "ace-ea", "explorer": "ea", "guided": True,
         "ea": {"crossover_rate": 0.6, "mutation_rate": 0.15, "tournament_size": 2}},
    ],
}

# Lenient promotion and pruning gates: both guided runs create macros and
# prune some of them, so scans, learning and sampling all meet pruned ids.
PRUNING_SUITE = {
    "suite_seed": 5,
    "runs_per_arm": 2,
    "run": {
        "population_size": 16, "max_generations": 20, "abstraction_period": 4,
        "max_new_macros_per_scan": 3, "prune_min_uses": 3,
    },
    "gca": {
        "tau": 0.5, "epsilon": 0.1, "lambda": 0.05, "gamma": 0.1,
        "theta_w": 0.2, "theta_s": 2, "theta_l": 1.2, "theta_eff": 0.3,
    },
    "domain": {
        "kind": "chain", "alphabet_size": 8, "sequence_length": 12,
        "target_bigrams": [[0, 1, 5.0], [2, 3, 3.0], [4, 5, 2.0], [6, 7, 1.5]],
        "noise_penalty": 0.2,
    },
    "arms": CHAIN_SUITE["arms"],
}

# The decay edges on the pruning suite: at gamma 1.0 every update zeroes
# each stored weight before it adds its own terms, so the saved models
# hold zero-valued entries; at gamma 0.0 nothing decays.
FULL_DECAY_SUITE = {**PRUNING_SUITE, "gca": {**PRUNING_SUITE["gca"], "gamma": 1.0}}
NO_DECAY_SUITE = {**PRUNING_SUITE, "gca": {**PRUNING_SUITE["gca"], "gamma": 0.0}}


def fingerprint(records: list[dict]) -> str:
    lines = sorted(
        json.dumps({k: v for k, v in r.items() if k != "wall_clock_seconds"}, sort_keys=True)
        for r in records
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def suite_fingerprint(doc: dict, out) -> str:
    records = orchestrate(SuiteSpec.from_dict(doc), out, parallelism=1, save_models=False)
    return fingerprint(records)


def test_maze_suite_fingerprint(tmp_path):
    assert suite_fingerprint(MAZE_SUITE, tmp_path) == MAZE_FINGERPRINT


def test_chain_suite_fingerprint(tmp_path):
    assert suite_fingerprint(CHAIN_SUITE, tmp_path) == CHAIN_FINGERPRINT


def models_fingerprint(doc: dict, out) -> tuple[str, list[dict]]:
    """The digest of a suite's records and of the model files its guided
    runs save, and the parsed model files."""
    records = orchestrate(SuiteSpec.from_dict(doc), out, parallelism=1, save_models=True)
    files = sorted(out.glob("gca_*.json"))
    digest = hashlib.sha256(fingerprint(records).encode())
    for f in files:
        digest.update(f"\n{f.name}\n".encode())
        digest.update(f.read_bytes())
    return digest.hexdigest(), [json.loads(f.read_text(encoding="utf-8")) for f in files]


def test_pruning_chain_suite_fingerprint_with_models(tmp_path):
    digest, models = models_fingerprint(PRUNING_SUITE, tmp_path)
    assert len(models) == 2
    assert all(any(m["pruned"] for m in doc["macros"]) for doc in models)
    assert digest == PRUNING_FINGERPRINT


def test_full_decay_chain_suite_keeps_zero_weights(tmp_path):
    digest, models = models_fingerprint(FULL_DECAY_SUITE, tmp_path)
    assert len(models) == 2
    # decayed entries stay stored and serialized at 0.0
    assert all(any(w == 0.0 for _, _, w in doc["weights"]) for doc in models)
    assert digest == FULL_DECAY_FINGERPRINT


def test_no_decay_chain_suite_fingerprint_with_models(tmp_path):
    digest, models = models_fingerprint(NO_DECAY_SUITE, tmp_path)
    assert len(models) == 2
    assert digest == NO_DECAY_FINGERPRINT


def path_models():
    """Standard mode, a guided model without macros, and one with three
    (EE, SS and EES)."""
    weights = {(1, 2): 1.0, (2, 1): 0.5, (0, 1): 0.25}
    plain = make_model(weights=weights)
    macros = make_model(weights=weights)
    for left, right in ((1, 1), (2, 2), (4, 2)):
        macros.add_macro(left, right)
    macros.weights = PairTable({**macros.weights, (1, 4): 2.0, (6, 3): 1.5})
    return (None, plain, macros)


def construct_path_digest(state_per_maze):
    """108 construct_path calls over three mazes, caps of the domain's budget and of 5 (set on a copy of the domain) and the
    three path models: the call count, the SHA-256 of every path and the
    rng's next variate, and the states shared per maze.  With
    state_per_maze, every call on one maze shares one PsoState, and so its
    tables; without, each call has a fresh one."""
    rng = random.Random(2024)
    digest = hashlib.sha256()
    calls = 0
    states = []
    for connectivity in (0.0, 0.3, 1.0):
        dom = MazeDomain(generate_maze(8, 8, connectivity, 7), path_slack=10)
        capped = copy.copy(dom)
        capped.default_max_path_len = 5
        state = PsoState([])
        states.append(state)
        params = PsoParams(heuristic_weight=2.0, dead_end_mode="terminate")
        for domain in (dom, capped):
            for model in path_models():
                for with_references in (False, True):
                    particle, gbest = Particle(), None
                    for _ in range(3):
                        if not state_per_maze:
                            state = PsoState([])
                        state.gbest = gbest
                        traj = construct_path(particle, state, params, model, domain, rng, 0.1)
                        digest.update(repr((traj.states, traj.ops, traj.fitness)).encode())
                        calls += 1
                        if with_references:
                            particle.current = traj
                            if particle.pbest is None or traj.fitness > particle.pbest.fitness:
                                particle.pbest = traj
                            gbest = particle.pbest
    digest.update(repr(rng.random()).encode())
    return calls, digest.hexdigest(), states


def test_construct_path_fingerprint():
    calls, digest, _ = construct_path_digest(state_per_maze=False)
    assert calls == 108
    assert digest == PATH_FINGERPRINT


def test_construct_path_fingerprint_with_one_state_per_maze():
    # Tables filled under one cap and model and read back
    # under the others give the paths of a fresh state per call.  Each
    # maze's macro table ends on the three-macro model's live set, with
    # every one of its macros walked from some cell.
    calls, digest, states = construct_path_digest(state_per_maze=True)
    assert calls == 108
    assert digest == PATH_FINGERPRINT
    for state in states:
        assert state.move_table
        (live, joined), = state.macro_table.items()
        assert [macro_id for macro_id, _ in live] == [4, 5, 6]
        assert {walk[0] for entry in joined.values() for walk in entry[5]} == {4, 5, 6}


def ea_domains():
    """A maze (4 moves) and chains over 6 and 64 tokens."""
    rewards = {(7, 57): 2.0, (3, 9): 1.5, (40, 63): 1.0}
    wide = ChainSpec(alphabet_size=64, sequence_length=48, rewards=rewards)
    return (
        MazeDomain(generate_maze(8, 8, 0.3, 7), path_slack=10),
        ChainDomain(),
        ChainDomain(wide),
    )


def test_ea_draws_fingerprint():
    rng = random.Random(2025)
    digest = hashlib.sha256()
    explorer = EaExplorer()
    params = EaParams()
    calls = 0
    for dom in ea_domains():
        model = make_model(
            n_atomic=dom.atomic_count,
            weights={(0, 1): 2.0, (1, 2): 1.0, (2, 0): 0.5},
            mask_mode=getattr(dom, "transition_mask_mode", "all"),
        )
        model.add_macro(0, 1)
        for size in (15, 30, 50):
            state = explorer.initialize(dom, ExperimentConfig(population_size=size), rng)
            # five fitness levels, so tournaments often break ties by index
            population = [
                Trajectory(ops=ops, atomic_ops=ops, fitness=float((len(ops) + sum(ops[:3])) % 5))
                for ops in (tr.ops for tr in state.population)
            ]
            digest.update(repr([tr.ops for tr in population]).encode())
            index = {id(tr): i for i, tr in enumerate(population)}
            for tsize in (2, 3, 5):
                picks = [_tournament(population, tsize, rng) for _ in range(size)]
                digest.update(repr([index[id(tr)] for tr in picks]).encode())
            survivors = select(population, params, rng, target_size=size)
            digest.update(repr([index[id(tr)] for tr in survivors]).encode())
            for rate in (0.08, 0.4, 1.0):
                for guide in (None, model):
                    for tr in population:
                        digest.update(repr(mutate(tr.ops, guide, dom, rate, rng)).encode())
                        calls += 1
    digest.update(repr(rng.random()).encode())
    assert calls == 3 * (15 + 30 + 50) * 3 * 2
    assert digest.hexdigest() == EA_DRAWS_FINGERPRINT


def test_crossover_draws_fingerprint():
    rng = random.Random(2026)
    digest = hashlib.sha256()
    lengths = (0, 1, 2, 3, 7, 8, 9, 63, 64, 65)
    bounds = ((1, None), (1, 1), (2, 8), (5, 5), (3, 64), (70, None))
    calls = 0
    for la in lengths:
        for lb in lengths:
            a, b = list(range(la)), list(range(100, 100 + lb))
            for min_len, max_len in bounds:
                for _ in range(3):
                    digest.update(repr(crossover(a, b, rng, min_len, max_len)).encode())
                    calls += 1
    for dom in ea_domains():
        for min_len, max_len in ((None, None), (1, 1), (1, 2), (7, 8), (3, 64), (20, 450)):
            explorer = EaExplorer(EaParams(min_len=min_len, max_len=max_len))
            for size in (2, 9):
                state = explorer.initialize(dom, ExperimentConfig(population_size=size), rng)
                digest.update(repr([tr.ops for tr in state.population]).encode())
    digest.update(repr(rng.random()).encode())
    assert calls == len(lengths) ** 2 * len(bounds) * 3
    assert digest.hexdigest() == CROSSOVER_DRAWS_FINGERPRINT
