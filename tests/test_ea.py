from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ace.ea as ea
from ace.chain import ChainDomain
from ace.ea import MAX_TOURNAMENT_SIZE, EaExplorer, EaParams, crossover, mutate, select
from ace.errors import ConfigError, DomainError
from ace.loop import ExperimentConfig, Trajectory, run_ace, run_standard

from helpers import Lacking, make_model


class ScriptedRng:
    """Returns pre-scripted values for getrandbits until the script runs
    out; everything else, and later draws, delegate."""

    def __init__(self, bits):
        self._bits = list(bits)
        self._rng = random.Random(0)

    def getrandbits(self, k):
        if not self._bits:
            return self._rng.getrandbits(k)
        value = self._bits.pop(0)
        assert 0 <= value < 2**k, f"scripted {value} outside {k} bits"
        return value

    def __getattr__(self, name):
        return getattr(self._rng, name)


class AtomsDomain:
    """A domain of n atomic operations, enough for seeding and mutation."""

    def __init__(self, n, bounds=(1, 40)):
        self.atomic_count = n
        self.default_genome_bounds = bounds

    def evaluate_sequence(self, ops, flat):
        return Trajectory(ops=ops, atomic_ops=flat, fitness=0.0)


# -- crossover -----------------------------------------------------------------


def test_crossover_hand_case():
    # cuts 1 and 1, each in range(4); the 4 and 7 fall outside it and are redrawn
    rng = ScriptedRng([4, 1, 7, 1])
    child = crossover([10, 11, 12], [20, 21, 22], rng)
    assert child == [10, 21, 22]
    assert rng._bits == []


def test_crossover_boundary_gives_parent_b():
    rng = ScriptedRng([0, 0])
    child = crossover([10, 11, 12], [20, 21, 22], rng)
    assert child == [20, 21, 22]
    assert rng._bits == []


@pytest.mark.parametrize("seed", [0, 1, 77])
def test_crossover_cuts_are_randints(seed):
    # each cut is the integer randint gives, from the same state, and
    # leaves the generator where randint leaves it
    rng, ref = random.Random(seed), random.Random(seed)
    for la in (0, 1, 2, 3, 7, 8, 64):
        for lb in (0, 1, 2, 3, 7, 8, 64):
            for min_len in (1, 2, 5, 70):
                child = crossover(list(range(la)), list(range(100, 100 + lb)), rng, min_len)
                cut_a = ref.randint(0, la)
                hi = min(lb, cut_a + lb - min_len)
                cut_b = ref.randint(0, hi) if hi > 0 else 0
                assert child == list(range(cut_a)) + list(range(100 + cut_b, 100 + lb))
                assert rng.getstate() == ref.getstate()


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
    dom = AtomsDomain(1)
    rng = random.Random(2)
    assert mutate([0, 0, 0], None, dom, 1.0, rng) == [0, 0, 0]
    m = make_model(n_atomic=1)
    assert mutate([0, 0, 0], m, dom, 1.0, rng) == [0, 0, 0]


def test_mutate_guided_matches_floored_softmax():
    # planted dominant transition 0 -> 1
    m = make_model(n_atomic=4, weights={(0, 1): 5.0}, exploration_floor=0.1)
    expected = m.floored_distribution(0, [0, 1, 2, 3])[1]
    dom = AtomsDomain(4)
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
    dom = AtomsDomain(4)
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf]),
                min_size=1, max_size=40))
def test_elites_follow_fitness_then_index(fitness):
    # descending fitness, ties to the lower index, NaN wherever the
    # comparisons of the key (-fitness, index) leave it
    pop = [t(f) for f in fitness]
    elites = select(pop, EaParams(elitism_fraction=1.0), ScriptedRng([]))
    order = sorted(range(len(pop)), key=lambda i: (-pop[i].fitness, i))
    assert [id(tr) for tr in elites] == [id(pop[i]) for i in order]


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
    EaParams(tournament_size=MAX_TOURNAMENT_SIZE).validate()
    message = rf"tournament_size must lie in \[2, {MAX_TOURNAMENT_SIZE}\], got {10**12}"
    with pytest.raises(ConfigError, match=message):
        EaParams(tournament_size=10**12).validate()
    with pytest.raises(ConfigError):
        EaParams(min_len=5, max_len=2).validate()


@pytest.mark.parametrize("bounds", [{"min_len": 0}, {"min_len": -5}, {"max_len": 0},
                                    {"min_len": 0, "max_len": 3}])
def test_params_reject_a_bound_below_1(bounds):
    [(key, value), *_] = bounds.items()
    with pytest.raises(ConfigError, match=f"{key} must be >= 1, got {value}"):
        EaParams(**bounds).validate()


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
    for _ in range(3):
        result = explorer.run_generation(state, None, dom, config, rng)
        for traj in result.evaluated:
            assert 2 <= len(traj.ops) <= 6
        assert len(state.population) == 12
    # generation 1 also evaluated the initial population
    assert result.events is not None


def test_generation_events_are_the_crossed_children_that_beat_their_parents(monkeypatch):
    # Each crossed child is evaluated right after its crossover, so the
    # parents' ops land in crossed just before the child is evaluated.
    crossed, children = [], []
    real_crossover = ea.crossover

    def crossing(ops_a, ops_b, *args):
        crossed.append((ops_a, ops_b))
        return real_crossover(ops_a, ops_b, *args)

    class Spy(EaExplorer):
        def _evaluate(self, ops, model, domain):
            child = super()._evaluate(ops, model, domain)
            children.append((crossed.pop() if crossed else None, child))
            return child

    monkeypatch.setattr(ea, "crossover", crossing)
    dom = ChainDomain()
    explorer = Spy(EaParams(crossover_rate=0.6, mutation_rate=0.2))
    config = ExperimentConfig(population_size=12)
    rng = random.Random(17)
    state = explorer.initialize(dom, config, rng)
    explorer.run_generation(state, None, dom, config, rng)  # evaluates the population
    forwarded = losing = 0
    for _ in range(8):
        population = state.population
        children.clear()
        events = explorer.run_generation(state, None, dom, config, rng).events
        # The parents' fitness, read from the members holding their ops.
        fitness = {id(t.ops): t.fitness for t in population}
        expected = []
        for parents, child in children:
            if parents is not None:
                fit_a, fit_b = (fitness[id(ops)] for ops in parents)
                gain = child.fitness - 0.5 * (fit_a + fit_b)
                if gain > 0:
                    expected.append((*parents, gain))
                else:
                    losing += 1
        assert all(ev.gain > 0 for ev in events)
        assert all(id(ev.ops_a) in fitness and id(ev.ops_b) in fitness for ev in events)
        assert len(events) == len(expected)
        assert [(ev.ops_a, ev.ops_b, ev.gain) for ev in events] == expected
        forwarded += len(events)
    # Both sides of the gate were reached.
    assert forwarded > 0 and losing > 0


def test_elitism_never_regresses():
    dom = ChainDomain()
    explorer = EaExplorer()
    config = ExperimentConfig(population_size=10, max_generations=1)
    rng = random.Random(11)
    state = explorer.initialize(dom, config, rng)
    best = None
    for _ in range(11):
        explorer.run_generation(state, None, dom, config, rng)
        gen_best = max(tr.fitness for tr in state.population)
        assert best is None or gen_best >= best
        best = gen_best


# -- integer draws -----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("seed", [0, 1, 77])
def test_integer_draws_are_randranges(n, seed):
    # every draw is the integer randrange(n) gives, from the same state,
    # and leaves the generator where randrange leaves it
    rng, ref = random.Random(seed), random.Random(seed)
    dom = AtomsDomain(n)
    state = EaExplorer().initialize(dom, ExperimentConfig(population_size=5), rng)
    for traj in state.population:
        length = ref.randint(1, 40)
        assert traj.ops == [ref.randrange(n) for _ in range(length)]
    assert rng.getstate() == ref.getstate()

    out = mutate([0] * 60, None, dom, 1.0, rng)
    assert out == [(ref.random(), ref.randrange(n))[1] for _ in range(60)]
    assert rng.getstate() == ref.getstate()

    population = [t(float(i % 3)) for i in range(n)]
    for size in (2, 3, 5):
        params = EaParams(elitism_fraction=0.0, tournament_size=size)
        for _ in range(20):
            winner = select(population, params, rng, target_size=1)[0]
            idx = [ref.randrange(n) for _ in range(size)]
            best = max(idx, key=lambda i: (population[i].fitness, -i))
            assert winner is population[best]
    assert rng.getstate() == ref.getstate()


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.log = []

    def random(self):
        u = super().random()
        self.log.append(("random", u))
        return u

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.log.append(("bits", r))
        return r


@pytest.mark.parametrize("n", [4, 5, 6])
def test_standard_mutate_draws_one_variate_per_position(n):
    # one random() per position; a mutated position then draws 3-bit
    # values until one below n comes up, and takes it
    rng = CountingRandom(3)
    ops = [0] * 300
    out = mutate(ops, None, AtomsDomain(n), 0.3, rng)
    log = iter(rng.log)
    mutated = 0
    for op in out:
        kind, u = next(log)
        assert kind == "random"
        if u < 0.3:
            mutated += 1
            kind, r = next(log)
            while r >= n:
                assert kind == "bits"
                kind, r = next(log)
            assert (kind, r) == ("bits", op)
        else:
            assert op == 0
    assert next(log, None) is None
    assert 0 < mutated < len(ops)


# -- an empty range never reaches the draw loops -----------------------------------


class NoDrawRandom:
    def __getattr__(self, name):
        raise AssertionError(f"drew a variate ({name})")


@pytest.mark.parametrize("model", [None, "guided"])
def test_mutate_without_atomic_ops_raises_before_any_variate(model):
    guide = make_model(n_atomic=1) if model else None
    with pytest.raises(ConfigError, match="no atomic operations"):
        mutate([0, 0], guide, AtomsDomain(0), 1.0, NoDrawRandom())


def test_check_domain_rejects_a_domain_without_atomic_ops():
    explorer = EaExplorer()
    explorer.check_domain(AtomsDomain(1))
    with pytest.raises(ConfigError, match=r"no atomic operations \(atomic_count 0\)"):
        explorer.check_domain(AtomsDomain(0))


@pytest.mark.parametrize("run", [run_standard, run_ace])
def test_run_without_genome_bounds_fails_before_any_variate(run):
    rng = random.Random(1)
    before = rng.getstate()
    with pytest.raises(ConfigError, match="no default_genome_bounds"):
        run(ExperimentConfig(), EaExplorer(), Lacking(ChainDomain(), "default_genome_bounds"), rng)
    assert rng.getstate() == before


def test_initialize_without_atomic_ops_raises_before_any_variate():
    with pytest.raises(ConfigError, match="no atomic operations"):
        EaExplorer().initialize(AtomsDomain(0), ExperimentConfig(), NoDrawRandom())


def test_tournament_over_an_empty_population_raises():
    with pytest.raises(DomainError, match="empty population"):
        select([], EaParams(), NoDrawRandom(), target_size=2)
