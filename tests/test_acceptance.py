"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Fast checks run by default; `-m medium` covers the oracle-backed runs and
`-m slow` the desk-scale maze benchmark (shared across its criteria via a
session fixture running the shipped suite config).
"""

from __future__ import annotations

import json
import math
import random
import statistics
import tempfile
from pathlib import Path

import pytest

import ace.cli as cli
from ace.chain import ChainDomain
from ace.ea import EaExplorer, EaParams
from ace.errors import InsufficientDataError
from ace.gca import GcaParams, deserialize_model, save_model, serialize_model
from ace.loop import ExperimentConfig, path_efficiency, run_ace, run_standard
from ace.maze import MazeDomain, bfs_shortest_path, generate_maze
from ace.stats import PairedSample, sign_test_one_sided, wilcoxon_signed_rank

from helpers import make_model, random_model
from test_stats import enumerate_signed_rank_p

REPO = Path(__file__).resolve().parent.parent
CHAIN_SUITE = json.loads((REPO / "configs" / "chain_suite.json").read_text())


def report(number, title, ok):
    print(f"ACCEPTANCE {number:>2} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {title}"


def chain_run(seed, *, guided=True, gens=None, pop=None, gca=None, warm=None):
    doc = CHAIN_SUITE
    arm = next(a for a in doc["arms"] if a["guided"])
    config = ExperimentConfig(
        population_size=pop or doc["run"]["population_size"],
        max_generations=gens or doc["run"]["max_generations"],
        abstraction_period=doc["run"]["abstraction_period"],
        gca=gca or cli.parse_gca(doc["gca"]),
        warm_start_model=warm,
    )
    explorer = EaExplorer(EaParams(**arm["ea"]))
    domain = ChainDomain()
    if guided:
        return run_ace(config, explorer, domain, random.Random(seed))
    best, record = run_standard(config, explorer, domain, random.Random(seed))
    return best, None, record


# -- 1..7: property checks (fast) ---------------------------------------------


def test_criterion_1_transition_normalization():
    rng = random.Random(101)
    ok = True
    for _ in range(1000):
        n = rng.randint(2, 10)
        weights = {
            (rng.randrange(n), rng.randrange(n)): rng.uniform(0, 40)
            for _ in range(rng.randint(0, 4 * n))
        }
        m = make_model(n_atomic=n, weights=weights, temperature=rng.uniform(0.05, 8))
        successors = rng.sample(range(n), rng.randint(1, n))
        total = sum(p for _, p in m.transition_distribution(rng.randrange(n), successors))
        ok = ok and abs(total - 1.0) <= 1e-9
    report(1, "transition probabilities normalize", ok)


def test_criterion_2_exploration_floor():
    from ace.gca import apply_exploration_floor

    rng = random.Random(202)
    ok = True
    for _ in range(500):
        k = rng.randint(1, 12)
        raw = [rng.random() for _ in range(k)]
        z = sum(raw) or 1.0
        eps = rng.uniform(1e-6, 0.999999)
        out = apply_exploration_floor([(i, v / z) for i, v in enumerate(raw)], eps)
        ok = ok and min(p for _, p in out) >= eps / k - 1e-12
    worked = apply_exploration_floor([(0, 1.0), (1, 0.0)], 0.1)
    ok = ok and worked[0][1] == (1 - 0.1) * 1.0 + 0.1 / 2
    ok = ok and abs(worked[0][1] - 0.95) < 1e-12 and abs(worked[1][1] - 0.05) < 1e-12
    report(2, "exploration floor bound and worked example", ok)


def test_criterion_3_consolidation_branches():
    ok = True
    # decay-only branch scales exactly
    m = make_model(weights={(0, 1): 1.0, (2, 0): 0.25}, decay=0.2)
    m.hebbian_pair_update([1, 0, 0, 0], [0, 0, 0, 1], 3.0, 3.0, 1.0)
    ok = ok and m.weights[(0, 1)] == 0.8 and m.weights[(2, 0)] == 0.25 * 0.8

    # symmetric outer product on unit count vectors
    m = make_model(learning_rate=0.15, decay=0.0)
    m.hebbian_pair_update([0, 1, 0, 0], [0, 0, 1, 0], 0.0, 0.0, 2.0)
    ok = ok and abs(m.weights[(1, 2)] - 0.3) < 1e-15
    ok = ok and abs(m.weights[(2, 1)] - 0.3) < 1e-15
    ok = ok and set(m.weights) == {(1, 2), (2, 1)}

    # locality on random sparse cases
    rng = random.Random(303)
    for _ in range(100):
        n = rng.randint(2, 6)
        weights = {
            (rng.randrange(n), rng.randrange(n)): rng.uniform(0.05, 4)
            for _ in range(rng.randint(1, 10))
        }
        decay = rng.uniform(0, 0.6)
        m = make_model(n_atomic=n, weights=dict(weights), decay=decay, learning_rate=0.3)
        a = [rng.randint(0, 2) for _ in range(n)]
        b = [rng.randint(0, 2) for _ in range(n)]
        m.hebbian_pair_update(a, b, 0.0, 0.0, 1.5)
        for (i, j), before in weights.items():
            if a[i] * b[j] + b[i] * a[j] == 0:
                ok = ok and math.isclose(
                    m.weights[(i, j)], before * (1 - decay), rel_tol=1e-12
                )
    report(3, "consolidation decay/increment/locality", ok)


def test_criterion_4_abstraction_gate():
    def model_with(weight=0.5, support=5, background=0.1):
        weights = {(0, 1): weight, (2, 3): background, (3, 2): background}
        return make_model(weights=weights, support={(0, 1): support})

    ok = True
    # each gate failing individually blocks promotion
    m = model_with(weight=0.3)  # not strictly above the weight gate
    ok = ok and m.scan_and_abstract(10) == []
    m = model_with(support=2)
    ok = ok and m.scan_and_abstract(10) == []
    uniform = {(i, j): 1.0 for i in range(4) for j in range(4)}
    uniform[(0, 1)] = 1.2
    m = make_model(weights=uniform, support={(0, 1): 5})
    ok = ok and m.compute_lift(0, 1) < 1.4 and m.scan_and_abstract(10) == []
    m = model_with()
    m.scan_and_abstract(10)
    ok = ok and m.scan_and_abstract(20) == []  # already promoted

    # all gates passing promotes exactly one pair, additively
    m = model_with()
    before = dict(m.weights)
    created = m.scan_and_abstract(10)
    ok = ok and len(created) == 1 and (created[0].left, created[0].right) == (0, 1)
    ok = ok and m.vocab_size == 5
    ok = ok and all(m.weights[k] == v for k, v in before.items())
    report(4, "macro promotion gates (0.3 / 3 / 1.4)", ok)


def test_criterion_5_signed_rank_exactness():
    rng = random.Random(505)
    ok = True
    for _ in range(200):
        n = rng.randint(5, 12)
        diffs = []
        while not any(diffs):
            diffs = [
                rng.choice([-1, 1]) * rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])
                for _ in range(n)
            ]
        sample = PairedSample([0.0] * n, diffs)
        _, p = wilcoxon_signed_rank(sample)
        ok = ok and abs(p - enumerate_signed_rank_p(diffs)) <= 1e-10
    report(5, "signed-rank p exact vs enumeration", ok)


def test_criterion_6_maze_generator():
    ok = True
    m = generate_maze(15, 15, 0.0, 3)
    ok = ok and len(m.open_edges) == 15 * 15 - 1
    seen = {m.index(m.start)}
    stack = list(seen)
    while stack:
        cell = stack.pop()
        for _, nxt in m.neighbor_table[cell]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    ok = ok and len(seen) == 225  # spanning tree is connected

    length, moves = bfs_shortest_path(m)
    domain = MazeDomain(m)
    traj = domain.evaluate_sequence(moves, moves)
    ok = ok and traj.success and traj.steps_used == length
    ok = ok and path_efficiency(domain, traj) == 1.0

    ok = ok and generate_maze(15, 15, 0.3, 9).open_edges == generate_maze(15, 15, 0.3, 9).open_edges
    report(6, "maze generator tree/oracle/determinism", ok)


def test_criterion_7_serialization_round_trip():
    rng = random.Random(707)
    ok = True
    for _ in range(100):
        m = random_model(rng)
        again = deserialize_model(serialize_model(m))
        ok = ok and again == m and serialize_model(again) == serialize_model(m)
    report(7, "model save/load is exact", ok)


# -- 8..9, 13: oracle-backed runs (medium) --------------------------------------


@pytest.mark.medium
def test_criterion_8_chain_learning():
    domain = ChainDomain()
    optimum = domain.optimum
    reached = 0
    promoted = 0
    for seed in range(10):
        _, model, record = chain_run(seed)
        if record.best_fitness >= 0.95 * optimum:
            reached += 1
        if any(m.left == 0 and m.right == 1 for m in model.macros):
            promoted += 1
    print(f"  chain: {reached}/10 at >=95% optimum, dominant pair promoted {promoted}/10")
    report(8, "chain runs reach the solver optimum and promote the pair", reached >= 9 and promoted >= 8)


@pytest.mark.medium
def test_criterion_9_guidance_neutrality():
    neutral = GcaParams(learning_rate=0.0, exploration_floor=0.999999)
    base, treat = [], []
    for seed in range(20):
        _, model, r_ace = chain_run(seed, gens=50, gca=neutral)
        assert model.macros == []  # nothing can be learned or promoted
        _, _, r_std = chain_run(seed, gens=50, guided=False)
        treat.append(r_ace.best_fitness)
        base.append(r_std.best_fitness)
    try:
        _, p = wilcoxon_signed_rank(PairedSample(base, treat))
        ok = p > 0.05
        print(f"  neutralized guidance vs standard: wilcoxon p={p:.3f}")
    except InsufficientDataError:
        ok = True  # almost all paired runs identical
        print("  neutralized guidance vs standard: fewer than 5 nonzero diffs")
    report(9, "neutralized guidance is indistinguishable from standard", ok)


@pytest.mark.medium
def test_criterion_13_warm_start(tmp_path):
    _, donor, _ = chain_run(999)
    donor_path = tmp_path / "donor.json"
    save_model(donor, donor_path)

    cold = {s: chain_run(s)[2] for s in range(10)}
    median_final = statistics.median(r.best_fitness for r in cold.values())

    def first_gen_reaching(record):
        for g, f in enumerate(record.best_fitness_by_generation, start=1):
            if f >= median_final - 1e-9:
                return g
        return None

    cold_gens = [g for g in map(first_gen_reaching, cold.values()) if g is not None]
    bound = 0.6 * statistics.median(cold_gens)
    wins = 0
    for s in range(10):
        _, _, warm_record = chain_run(s, warm=str(donor_path))
        g = first_gen_reaching(warm_record)
        wins += g is not None and g <= bound
    print(f"  warm start: {wins}/10 reach the cold median by generation {bound:.1f}")
    report(13, "transferred model accelerates fresh runs", wins >= 7)


# -- 10..12, 14: desk-scale maze benchmark (slow) ---------------------------------


@pytest.fixture(scope="session")
def maze_records():
    suite = cli.SuiteSpec.from_file(REPO / "configs" / "maze_suite.json")
    out = Path(tempfile.mkdtemp(prefix="ace-acceptance-"))
    records = cli.orchestrate(suite, out, parallelism=2, save_models=False)
    by_arm = {}
    for r in records:
        by_arm.setdefault(r["arm"], {})[(r["maze_id"], r["run_index"])] = r
    return by_arm


@pytest.mark.slow
def test_criterion_10_swarm_success_rates(maze_records):
    std, ace = maze_records["std-pso"], maze_records["ace-pso"]
    keys = list(std)
    rate_std = sum(std[k]["success"] for k in keys) / len(keys)
    rate_ace = sum(ace[k]["success"] for k in keys) / len(keys)
    delta = rate_ace - rate_std

    positives = sum(1 for k in keys if ace[k]["success"] > std[k]["success"])
    negatives = sum(1 for k in keys if ace[k]["success"] < std[k]["success"])
    p = sign_test_one_sided(positives, negatives)

    low = [k for k in keys if std[k]["connectivity"] <= 0.3]
    high = [k for k in keys if std[k]["connectivity"] > 0.3]
    gain_low = sum(ace[k]["success"] - std[k]["success"] for k in low) / len(low)
    gain_high = sum(ace[k]["success"] - std[k]["success"] for k in high) / len(high)

    print(
        f"  swarm success: std {rate_std:.1%} vs guided {rate_ace:.1%} "
        f"(+{100 * delta:.1f} pts), sign test p={p:.4f}, "
        f"gain at sparse levels {gain_low:.2f} vs braided {gain_high:.2f}"
    )
    report(
        10,
        "guided swarm gains >=10 points, concentrated at low connectivity",
        delta >= 0.10 and p < 0.05 and gain_low >= gain_high,
    )


@pytest.mark.slow
def test_criterion_11_swarm_convergence(maze_records):
    std = [r["success_generation"] for r in maze_records["std-pso"].values() if r["success"]]
    ace = [r["success_generation"] for r in maze_records["ace-pso"].values() if r["success"]]
    mean_std = statistics.fmean(std)
    mean_ace = statistics.fmean(ace)
    reduction = 1 - mean_ace / mean_std
    print(f"  mean success generation: {mean_std:.1f} -> {mean_ace:.1f} ({reduction:.1%} lower)")
    report(11, "guided swarm converges >=20% faster", mean_ace < mean_std and reduction >= 0.20)


@pytest.mark.slow
def test_criterion_12_ea_non_inferiority(maze_records):
    std, ace = maze_records["std-ea"], maze_records["ace-ea"]
    keys = list(std)
    rate_std = sum(std[k]["success"] for k in keys) / len(keys)
    rate_ace = sum(ace[k]["success"] for k in keys) / len(keys)
    mean_fit_delta = statistics.fmean(
        ace[k]["best_fitness"] - std[k]["best_fitness"] for k in keys
    )
    print(
        f"  ea success: std {rate_std:.1%} vs guided {rate_ace:.1%}; "
        f"mean fitness improvement {mean_fit_delta:+.1f}"
    )
    report(12, "guided ea within 2 points of standard", rate_ace >= rate_std - 0.02)


@pytest.mark.slow
def test_criterion_14_macro_volume(maze_records):
    survivors = [
        r["macros_surviving"]
        for arm in ("ace-pso", "ace-ea")
        for r in maze_records[arm].values()
        if r["connectivity"] == 0.0
    ]
    mean = statistics.fmean(survivors)
    print(f"  surviving macros per guided run on perfect mazes: {mean:.1f}")
    report(14, "macro volume in the 3..30 band", 3.0 <= mean <= 30.0)
