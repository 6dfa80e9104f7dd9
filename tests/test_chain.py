from __future__ import annotations

import itertools
import random

import pytest

from ace.chain import ChainDomain, ChainSpec, brute_force_optimum, chain_fitness
from ace.errors import ConfigError


def exhaustive_optimum(spec):
    """Independent oracle: enumerate every sequence of the full length."""
    best = None
    witness = None
    for seq in itertools.product(range(spec.alphabet_size), repeat=spec.sequence_length):
        f = chain_fitness(spec, list(seq))
        if best is None or f > best or (f == best and list(seq) < witness):
            best = f
            witness = list(seq)
    return best, witness


# -- fitness ----------------------------------------------------------------


def test_empty_and_single_token():
    spec = ChainSpec()
    assert chain_fitness(spec, []) == 0.0
    assert chain_fitness(spec, [3]) == 0.0


def test_single_rewarded_pair():
    spec = ChainSpec(rewards={(0, 1): 5.0}, noise_penalty=0.1)
    assert chain_fitness(spec, [0, 1]) == 5.0


def test_all_pairs_penalized():
    spec = ChainSpec(rewards={(0, 1): 5.0}, noise_penalty=0.2)
    seq = [2, 3, 4, 5, 2, 3]  # contains (2,3) which is NOT rewarded here
    assert chain_fitness(spec, seq) == pytest.approx(-(len(seq) - 1) * 0.2)


def test_mixed_sequence():
    spec = ChainSpec()
    # default rewards: (0,1)->5, (2,3)->3; penalty 0.2
    assert chain_fitness(spec, [0, 1, 2, 3]) == pytest.approx(5 - 0.2 + 3)


# -- exact solver ---------------------------------------------------------------


def test_solver_minimal_pair():
    spec = ChainSpec(alphabet_size=3, sequence_length=2, rewards={(0, 1): 5.0}, noise_penalty=0.0)
    value, witness = brute_force_optimum(spec)
    assert value == 5.0
    assert witness == [0, 1]


def test_solver_alternation_by_hand():
    spec = ChainSpec(
        alphabet_size=3,
        sequence_length=3,
        rewards={(0, 1): 5.0, (1, 0): 5.0},
        noise_penalty=0.0,
    )
    value, witness = brute_force_optimum(spec)
    assert value == 10.0
    assert witness == [0, 1, 0]


def test_solver_heavy_penalty_still_full_length():
    spec = ChainSpec(
        alphabet_size=3, sequence_length=4, rewards={(0, 1): 0.5}, noise_penalty=10.0
    )
    value, witness = brute_force_optimum(spec)
    assert len(witness) == 4
    assert value == exhaustive_optimum(spec)[0]


def test_solver_matches_enumeration():
    rng = random.Random(12)
    for _ in range(12):
        alphabet = rng.randint(2, 4)
        length = rng.randint(2, 6)
        rewards = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(alphabet)
            j = rng.randrange(alphabet)
            if i != j:
                rewards[(i, j)] = rng.uniform(0.5, 6)
        if not rewards:
            rewards = {(0, 1): 1.0}
        spec = ChainSpec(
            alphabet_size=alphabet,
            sequence_length=length,
            rewards=rewards,
            noise_penalty=rng.choice([0.0, 0.1, 1.0]),
        )
        got_value, got_witness = brute_force_optimum(spec)
        want_value, want_witness = exhaustive_optimum(spec)
        assert got_value == pytest.approx(want_value, abs=1e-12)
        assert got_witness == want_witness


def test_solver_witness_is_lexicographically_smallest():
    # symmetric rewards: many optima; the witness must be the smallest
    spec = ChainSpec(
        alphabet_size=4,
        sequence_length=4,
        rewards={(0, 1): 2.0, (2, 3): 2.0, (1, 0): 2.0, (3, 2): 2.0},
        noise_penalty=0.0,
    )
    _, witness = brute_force_optimum(spec)
    assert witness == exhaustive_optimum(spec)[1]
    assert witness[0] == 0


def test_solver_size_guard():
    spec = ChainSpec(alphabet_size=5000, sequence_length=5000, rewards={(0, 1): 1.0})
    with pytest.raises(ConfigError, match="too large"):
        brute_force_optimum(spec)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ChainSpec(alphabet_size=1).validate()
    with pytest.raises(ConfigError):
        ChainSpec(rewards={(0, 0): 1.0}).validate()
    with pytest.raises(ConfigError):
        ChainSpec(rewards={(0, 9): 1.0}).validate()
    with pytest.raises(ConfigError):
        ChainSpec(rewards={(0, 1): -1.0}).validate()


# -- domain adapter ----------------------------------------------------------------


def test_default_domain_optimum():
    dom = ChainDomain()
    assert dom.optimum == pytest.approx(29.0)
    assert dom.optimal_sequence == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_domain_scores_only_the_budgeted_prefix():
    dom = ChainDomain()
    seq = [0, 1] * 10  # 20 tokens, budget is 12
    traj = dom.evaluate_sequence(list(range(5)), seq)
    assert traj.atomic_ops == seq  # the flattened sequence is kept whole
    assert traj.steps_used == 12
    assert traj.fitness == pytest.approx(29.0)  # scoring stops at the budget
    assert traj.success


def test_domain_success_threshold():
    dom = ChainDomain()
    near = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 3]
    traj = dom.evaluate_sequence(near, near)
    assert traj.fitness < 0.95 * dom.optimum
    assert not traj.success


def test_domain_success_threshold_non_positive_optimum():
    # no planted pairs: every adjacency costs 0.5, so the optimum is -2.0;
    # success means coming within 5% of |optimum| of it
    spec = ChainSpec(alphabet_size=4, sequence_length=5, rewards={}, noise_penalty=0.5)
    dom = ChainDomain(spec)
    assert dom.optimum == -2.0
    assert dom.success_threshold == pytest.approx(-2.1)
    best = dom.evaluate_sequence(dom.optimal_sequence, dom.optimal_sequence)
    assert best.fitness == dom.optimum and best.success
    # a small reward below the penalty: optimum -1.8, threshold -1.89
    spec = ChainSpec(alphabet_size=4, sequence_length=5, rewards={(0, 1): 0.1}, noise_penalty=1.0)
    dom = ChainDomain(spec)
    assert dom.optimum == pytest.approx(-1.8)
    assert dom.evaluate_sequence(dom.optimal_sequence, dom.optimal_sequence).success
    worse = [0, 1, 2, 3, 2]  # one planted pair, three penalties: -2.9
    assert not dom.evaluate_sequence(worse, worse).success
    # a zero optimum (single token) is reached exactly
    single = ChainDomain(ChainSpec(alphabet_size=2, sequence_length=1, rewards={}))
    assert single.success_threshold == 0.0
    # a positive optimum keeps the plain fraction
    assert ChainDomain(success_fraction=0.9).success_threshold == 0.9 * ChainDomain().optimum


def test_domain_uses_no_self_mask():
    assert ChainDomain().transition_mask_mode == "no_self"


@pytest.mark.medium
def test_guided_runs_learn_the_dominant_pair():
    """On a spec planted with a single dominant pair, guided evolution
    should both concentrate sampling mass on that transition and promote
    it to a macro, in at least 8 of 10 seeded runs."""
    import random as random_module

    from ace.ea import EaExplorer, EaParams
    from ace.gca import GcaParams
    from ace.loop import ExperimentConfig, run_ace

    prob_ok = 0
    macro_ok = 0
    for seed in range(10):
        spec = ChainSpec(
            alphabet_size=6, sequence_length=12, rewards={(0, 1): 8.0}, noise_penalty=0.2
        )
        config = ExperimentConfig(
            population_size=50,
            max_generations=100,
            abstraction_period=5,
            gca=GcaParams(learning_rate=0.01, exploration_floor=0.15),
        )
        explorer = EaExplorer(
            EaParams(crossover_rate=0.6, mutation_rate=0.15, tournament_size=2)
        )
        _, model, _ = run_ace(config, explorer, ChainDomain(spec), random_module.Random(seed))
        successors = [j for j in model.sampling_vocabulary() if model.valid_pair(0, j)]
        p = dict(model.floored_distribution(0, successors)).get(1, 0.0)
        prob_ok += p >= 0.8
        macro_ok += any(m.left == 0 and m.right == 1 for m in model.macros)
    assert prob_ok >= 8
    assert macro_ok >= 8
