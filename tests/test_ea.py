from __future__ import annotations

import random
from collections import Counter

import pytest

from ace.chain import ChainDomain
from ace.ea import EaExplorer, EaParams, crossover, mutate, select
from ace.errors import ConfigError
from ace.loop import ExperimentConfig, Trajectory

from helpers import make_model


class ScriptedRng:
    """Returns pre-scripted values for randint; everything else delegates."""

    def __init__(self, randints):
        self._randints = list(randints)
        self._rng = random.Random(0)

    def randint(self, lo, hi):
        value = self._randints.pop(0)
        assert lo <= value <= hi, f"scripted {value} outside [{lo}, {hi}]"
        return value

    def __getattr__(self, name):
        return getattr(self._rng, name)


class SingleOpDomain:
    atomic_op_names = ["only"]
    atomic_count = 1
    default_genome_bounds = (1, 8)

    def evaluate_sequence(self, ops, flat):
        return Trajectory(ops=ops, atomic_ops=flat, fitness=float(len(flat)))


# -- crossover -----------------------------------------------------------------


def test_crossover_hand_case():
    child = crossover([10, 11, 12], [20, 21, 22], ScriptedRng([1, 1]))
    assert child == [10, 21, 22]


def test_crossover_boundary_gives_parent_b():
    child = crossover([10, 11, 12], [20, 21, 22], ScriptedRng([0, 0]))
    assert child == [20, 21, 22]


def test_crossover_identical_parents_subset_of_union():
    rng = random.Random(4)
    parent = [3, 1, 2, 0, 1]
    for _ in range(100):
        child = crossover(list(parent), list(parent), rng)
        assert not (Counter(child) - Counter(parent + parent))


def test_crossover_respects_bounds():
    rng = random.Random(9)
    for _ in range(300):
        la, lb = rng.randint(2, 10), rng.randint(2, 10)
        child = crossover(list(range(la)), list(range(lb)), rng, min_len=2, max_len=8)
        assert 2 <= len(child) <= 8


# -- mutation ------------------------------------------------------------------


def test_mutate_rate_zero_is_identity():
    dom = ChainDomain()
    m = make_model(n_atomic=6)
    rng = random.Random(1)
    ops = [0, 1, 2, 3]
    assert mutate(ops, m, dom, 0.0, rng) == ops
    assert mutate(ops, None, dom, 0.0, rng) == ops


def test_mutate_rate_one_single_op_deterministic():
    dom = SingleOpDomain()
    rng = random.Random(2)
    assert mutate([0, 0, 0], None, dom, 1.0, rng) == [0, 0, 0]
    m = make_model(n_atomic=1)
    assert mutate([0, 0, 0], m, dom, 1.0, rng) == [0, 0, 0]


def test_mutate_guided_matches_floored_softmax():
    # planted dominant transition 0 -> 1
    m = make_model(n_atomic=4, weights={(0, 1): 5.0}, exploration_floor=0.1)
    expected = dict(m.floored_distribution(0, [0, 1, 2, 3]))[1]
    dom = type("D", (), {"atomic_count": 4})()
    rng = random.Random(3)
    hits = 0
    first_zero = 0
    for _ in range(40_000):
        out = mutate([0, 9], m, dom, 1.0, rng)
        # position 0 re-rolls uniformly; position 1 conditions on out[0]
        if out[0] == 0:
            first_zero += 1
            hits += out[1] == 1
    assert abs(hits / first_zero - expected) < 0.02


def test_mutate_standard_is_uniform_over_atoms():
    dom = type("D", (), {"atomic_count": 4})()
    rng = random.Random(8)
    counts = Counter()
    for _ in range(20_000):
        counts[mutate([2], None, dom, 1.0, rng)[0]] += 1
    for op in range(4):
        assert abs(counts[op] / 20_000 - 0.25) < 0.02


# -- selection -----------------------------------------------------------------


def t(fitness):
    return Trajectory(ops=[], atomic_ops=[], fitness=fitness)


def test_select_best_always_survives():
    pop = [t(1.0), t(9.0)]
    params = EaParams(elitism_fraction=0.5)
    for seed in range(20):
        out = select(pop, params, random.Random(seed))
        assert len(out) == 2
        assert any(s.fitness == 9.0 for s in out)


def test_select_equal_fitness_multiset_of_input():
    pop = [t(2.0) for _ in range(5)]
    out = select(pop, EaParams(), random.Random(1))
    assert len(out) == 5
    assert all(s in pop for s in out)


def test_select_hand_trace():
    pop = [t(3.0), t(1.0), t(2.0)]
    params = EaParams(elitism_fraction=0.34, tournament_size=2)
    out = select(pop, params, ScriptedRng([]))
    # ceil(0.34 * 3) = 2 elites: fitness 3 and 2; one tournament fills the rest
    fits = sorted(s.fitness for s in out[:2])
    assert fits == [2.0, 3.0]
    assert len(out) == 3


def test_select_target_size():
    pop = [t(float(i)) for i in range(6)]
    out = select(pop, EaParams(elitism_fraction=0.1), random.Random(0), target_size=3)
    assert len(out) == 3
    assert out[0].fitness == 5.0


def test_params_validation():
    with pytest.raises(ConfigError):
        EaParams(crossover_rate=1.5).validate()
    with pytest.raises(ConfigError):
        EaParams(tournament_size=1).validate()
    with pytest.raises(ConfigError):
        EaParams(min_len=5, max_len=2).validate()


# -- explorer loop pieces ---------------------------------------------------------


def test_initialize_respects_bounds():
    dom = ChainDomain()
    explorer = EaExplorer(EaParams(min_len=3, max_len=7))
    state = explorer.initialize(dom, ExperimentConfig(population_size=40), random.Random(5))
    assert len(state.population) == 40
    for traj in state.population:
        assert 3 <= len(traj.ops) <= 7
        assert all(0 <= op < dom.atomic_count for op in traj.ops)


def test_generation_produces_bounded_offspring():
    dom = ChainDomain()
    explorer = EaExplorer(EaParams(min_len=2, max_len=6))
    config = ExperimentConfig(population_size=12, max_generations=3)
    rng = random.Random(7)
    state = explorer.initialize(dom, config, rng)
    for gen in (1, 2, 3):
        result = explorer.run_generation(state, gen, None, dom, config, rng)
        for traj in result.evaluated:
            assert 2 <= len(traj.ops) <= 6
        assert len(state.population) == 12
    # generation 1 also evaluated the initial population
    assert result.events is not None


def test_elitism_never_regresses():
    dom = ChainDomain()
    explorer = EaExplorer()
    config = ExperimentConfig(population_size=10, max_generations=1)
    rng = random.Random(11)
    state = explorer.initialize(dom, config, rng)
    best = None
    for gen in range(1, 12):
        explorer.run_generation(state, gen, None, dom, config, rng)
        gen_best = max(tr.fitness for tr in state.population)
        assert best is None or gen_best >= best
        best = gen_best
