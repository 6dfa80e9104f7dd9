from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ace.chain import (
    MAX_DP_STATES,
    SUCCESS_FRACTION,
    ChainDomain,
    ChainSpec,
    brute_force_optimum,
    chain_fitness,
    reward_rows,
)
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


def dense_optimum(spec):
    """Reference DP over the dense a x a score table: every column of
    every row is scored, and the witness takes the first column that
    reaches the suffix value."""
    a, length = spec.alphabet_size, spec.sequence_length
    if length == 1:
        return 0.0, [0]
    score = [[-spec.noise_penalty] * a for _ in range(a)]
    for (i, j), r in spec.rewards.items():
        score[i][j] = r
    suffix = [[0.0] * a for _ in range(length)]
    for t in range(length - 2, -1, -1):
        nxt = suffix[t + 1]
        suffix[t] = [max(s + x for s, x in zip(row, nxt)) for row in score]
    best = max(suffix[0])
    seq = [suffix[0].index(best)]
    for t in range(length - 1):
        cur, nxt = seq[-1], suffix[t + 1]
        seq.append(next(j for j in range(a) if score[cur][j] + nxt[j] == suffix[t][cur]))
    return best, seq


@pytest.mark.parametrize("alphabet", [2, 3, 6, 64])
def test_solver_matches_the_dense_reference(alphabet):
    rng = random.Random(alphabet)
    off_diagonal = [(i, j) for i in range(alphabet) for j in range(alphabet) if i != j]
    for length in (1, 2, 5, 48):
        for noise in (0.0, 0.2, 1.3):
            for planted in (1, alphabet - 1, min(24, len(off_diagonal)), len(off_diagonal)):
                pairs = rng.sample(off_diagonal, planted)
                spec = ChainSpec(
                    alphabet_size=alphabet,
                    sequence_length=length,
                    rewards={pair: rng.uniform(0.05, 2.5) for pair in pairs},
                    noise_penalty=noise,
                )
                got_value, got_witness = brute_force_optimum(spec)
                want_value, want_witness = dense_optimum(spec)
                assert got_value.hex() == want_value.hex(), (length, noise, planted)
                assert got_witness == want_witness, (length, noise, planted)


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


def test_spec_validation_caps_the_dp_size():
    # Checked from the two sizes alone, before anything is built.
    side = 10_000
    ChainSpec(alphabet_size=side, sequence_length=MAX_DP_STATES // side**2,
              rewards={(0, 1): 1.0}).validate()
    with pytest.raises(ConfigError, match=f"too large.*over {MAX_DP_STATES}"):
        ChainSpec(alphabet_size=side + 1, sequence_length=1, rewards={(0, 1): 1.0}).validate()


def test_spec_validation():
    with pytest.raises(ConfigError):
        ChainSpec(alphabet_size=1).validate()
    with pytest.raises(ConfigError):
        ChainSpec(rewards={(0, 0): 1.0}).validate()
    with pytest.raises(ConfigError):
        ChainSpec(rewards={(0, 9): 1.0}).validate()
    with pytest.raises(ConfigError):
        ChainSpec(rewards={(0, 1): -1.0}).validate()


@pytest.mark.parametrize(
    "rewards, noise_penalty",
    [({(0, 1): 1e308, (1, 0): 1e308}, 0.2), ({(0, 1): 5.0}, 1e308)],
)
def test_spec_validation_rejects_scores_that_overflow(rewards, noise_penalty):
    # Each term is finite, but five of them add past the float range.
    spec = ChainSpec(alphabet_size=4, sequence_length=6, rewards=rewards,
                     noise_penalty=noise_penalty)
    with pytest.raises(ConfigError, match="chain scores may overflow"):
        spec.validate()


def test_spec_validation_admits_scores_below_half_the_float_range():
    # 5 * 1e307 < 2**1023: every score and the optimum stay finite.
    spec = ChainSpec(alphabet_size=4, sequence_length=6,
                     rewards={(0, 1): 1e307, (1, 0): 1e307}, noise_penalty=1e307)
    dom = ChainDomain(spec)
    assert dom.optimum == 5e307
    assert dom.evaluate_sequence([], [0, 1, 0, 1, 0, 1]).fitness == 5e307
    assert chain_fitness(spec, [2, 3, 2, 3, 2, 3]) == -5e307


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


@st.composite
def specs_and_tokens(draw):
    """A valid spec, with planted rows on either side of the scorer-table
    rule, and a token list that may run past the budget or hold tokens
    the row walk cannot index: negative, past the alphabet, bool, float."""
    a = draw(st.integers(2, 8))
    length = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(a) for j in range(a) if i != j]
    planted = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    reward = st.one_of(
        st.floats(1e-9, 1e9, allow_nan=False), st.integers(1, 9), st.just(5e-324)
    )
    rewards = {pair: draw(reward) for pair in planted}
    penalty = draw(st.one_of(st.floats(0, 5, allow_nan=False), st.just(0)))
    spec = ChainSpec(alphabet_size=a, sequence_length=length, rewards=rewards,
                     noise_penalty=penalty)
    token = st.one_of(
        st.integers(0, a - 1), st.integers(-a - 2, a + 2), st.booleans(),
        st.sampled_from([0.0, 1.0, 1.5]),
    )
    tokens = draw(st.lists(token, max_size=length + 4))
    return spec, tokens


@settings(max_examples=400, deadline=None)
@given(specs_and_tokens())
@example((ChainSpec(), []))
@example((ChainSpec(), [4]))
@example((ChainSpec(), [0, 1, -1, 0]))
@example((ChainSpec(), [True, 2, 3, False, 1]))
@example((ChainSpec(), [0, 1, 7, 1]))
@example((ChainSpec(sequence_length=2), [0, 1, 0]))  # no table: 2 planted rows + 1 > 2
def test_domain_fitness_is_chain_fitness_of_the_budget(case):
    spec, tokens = case
    dom = ChainDomain(spec)
    traj = dom.evaluate_sequence(list(tokens), tokens)
    assert traj.fitness == chain_fitness(spec, tokens[: spec.sequence_length])
    assert traj.steps_used == min(len(tokens), spec.sequence_length)


def test_scorer_table_holds_one_penalty_row_and_one_row_per_planted_first_token():
    rewards = {(0, 1): 5.0, (0, 3): 1.0, (2, 3): 3.0, (5, 0): 2.0}
    spec = ChainSpec(alphabet_size=6, sequence_length=4, rewards=rewards, noise_penalty=0.25)
    rows = ChainDomain(spec).reward_rows
    assert sorted(rows) == list(range(6))
    distinct = {id(row): row for row in rows.values()}
    assert len(distinct) == 3 + 1  # first tokens 0, 2 and 5, plus the penalty row
    assert rows[1] is rows[3] is rows[4] == [-0.25] * 6
    assert rows[0] == [-0.25, 5.0, -0.25, 1.0, -0.25, -0.25]
    assert rows[2] == [-0.25, -0.25, -0.25, 3.0, -0.25, -0.25]
    assert rows[5] == [2.0, -0.25, -0.25, -0.25, -0.25, -0.25]
    # never more rows than the solver's suffix table, one per position
    assert reward_rows(ChainSpec(alphabet_size=6, sequence_length=3, rewards=rewards)) is None
    assert reward_rows(ChainSpec(sequence_length=1, rewards={})) is not None
    assert reward_rows(ChainSpec(sequence_length=1)) is None


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
    assert ChainDomain().success_threshold == SUCCESS_FRACTION * ChainDomain().optimum


def test_one_token_chain_runs_under_both_ea_arms():
    from ace.ea import EaExplorer
    from ace.loop import ExperimentConfig, run_ace, run_standard

    domain = ChainDomain(ChainSpec(alphabet_size=3, sequence_length=1, rewards={}))
    assert domain.default_genome_bounds == (1, 1)
    config = ExperimentConfig(population_size=6, max_generations=5)
    _, standard = run_standard(config, EaExplorer(), domain, random.Random(1))
    _, _, guided = run_ace(config, EaExplorer(), domain, random.Random(1))
    assert standard.success and guided.success
    assert ChainDomain(ChainSpec(sequence_length=2)).default_genome_bounds == (2, 2)


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
        p = dict(zip(successors, model.floored_distribution(0, successors))).get(1, 0.0)
        prob_ok += p >= 0.8
        macro_ok += any(m.left == 0 and m.right == 1 for m in model.macros)
    assert prob_ok >= 8
    assert macro_ok >= 8
