from __future__ import annotations

import dataclasses
import json
import math
import random
import re
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace.errors import ConfigError, DomainError, InternalError, ParseError
from ace.gca import (
    HYPERPARAMETERS,
    GcaModel,
    GcaParams,
    MacroOperation,
    PairTable,
    add_up,
    apply_exploration_floor,
    deserialize_model,
    finite_json,
    serialize_model,
    softmax_floor,
    softmax_floor_choice,
    softmax_floor_sums,
)

from helpers import draw, make_model, ops_with_counts, random_model


# -- transition distribution -------------------------------------------------


def test_zero_weights_uniform():
    m = make_model()
    dist = m.transition_distribution(0, [0, 1, 2, 3])
    assert [op for op, _ in dist] == [0, 1, 2, 3]
    for _, p in dist:
        assert p == pytest.approx(0.25, abs=1e-12)


def test_single_successor():
    m = make_model()
    assert m.transition_distribution(2, [1]) == [(1, 1.0)]


def test_planted_weight_matches_closed_form():
    m = make_model(weights={(0, 1): 1.0}, temperature=1.0)
    dist = dict(m.transition_distribution(0, [1, 2]))
    e = math.e
    assert dist[1] == pytest.approx(e / (e + 1), abs=1e-12)
    assert dist[2] == pytest.approx(1 / (e + 1), abs=1e-12)


def test_empty_successors_rejected():
    m = make_model()
    with pytest.raises(DomainError, match="no valid successors"):
        m.transition_distribution(0, [])


def test_empty_row_rejected_by_floor_and_draw():
    with pytest.raises(DomainError, match="no valid successors"):
        apply_exploration_floor([], 0.1)
    with pytest.raises(DomainError, match="no valid successors"):
        softmax_floor([], 0.1)
    with pytest.raises(DomainError, match="no valid successors"):
        draw([], random.Random(0))
    with pytest.raises(DomainError, match="no valid successors"):
        make_model().floored_distribution(0, [])


def test_invalid_ids_rejected():
    m = make_model(n_atomic=3)
    with pytest.raises(DomainError):
        m.transition_distribution(5, [0])
    with pytest.raises(DomainError):
        m.transition_distribution(0, [0, 7])


@given(
    n=st.integers(2, 8),
    tau=st.floats(0.05, 10.0),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_normalization_property(n, tau, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    weights = {
        (rng.randrange(n), rng.randrange(n)): rng.uniform(0, 50)
        for _ in range(rng.randint(0, 3 * n))
    }
    m = make_model(n_atomic=n, weights=weights, temperature=tau)
    k = rng.randint(1, n)
    successors = rng.sample(range(n), k)
    dist = m.transition_distribution(rng.randrange(n), successors)
    assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-9)


def test_lower_temperature_concentrates_argmax():
    weights = {(0, 1): 2.0, (0, 2): 0.5}
    last = 0.0
    for tau in (4.0, 1.0, 0.25):
        m = make_model(weights=weights, temperature=tau)
        p = dict(m.transition_distribution(0, [1, 2, 3]))[1]
        assert p >= last
        last = p


# -- exploration floor ---------------------------------------------------------


def test_floor_uniform_fixed_point():
    probs = [(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]
    for eps in (0.01, 0.1, 0.5, 0.9):
        out = apply_exploration_floor(probs, eps)
        for (_, before), (_, after) in zip(probs, out):
            assert after == pytest.approx(before, abs=1e-12)


def test_floor_worked_example():
    out = apply_exploration_floor([(0, 1.0), (1, 0.0)], 0.1)
    assert out[0][1] == (1 - 0.1) * 1.0 + 0.1 / 2
    assert out[0][1] == pytest.approx(0.95, abs=1e-12)
    assert out[1][1] == pytest.approx(0.05, abs=1e-12)


def test_floor_near_one_dominates():
    out = apply_exploration_floor([(0, 0.9), (1, 0.1)], 0.999999)
    assert out[0][1] == pytest.approx(0.5, abs=1e-5)
    assert out[1][1] == pytest.approx(0.5, abs=1e-5)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5])
def test_floor_epsilon_range_enforced(eps):
    with pytest.raises(ConfigError):
        apply_exploration_floor([(0, 1.0)], eps)


@given(
    k=st.integers(1, 10),
    eps=st.floats(1e-6, 0.999999),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_floor_bound_property(k, eps, data):
    raw = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(
            lambda v: sum(v) > 0
        )
    )
    z = sum(raw)
    probs = [(i, v / z) for i, v in enumerate(raw)]
    out = apply_exploration_floor(probs, eps)
    assert sum(p for _, p in out) == pytest.approx(1.0, abs=1e-9)
    for _, p in out:
        assert p >= eps / k - 1e-12


# -- sampling -----------------------------------------------------------------


def test_sample_single_successor_always():
    # two ops without self-succession: 1 is the only successor of 0
    m = make_model(n_atomic=2, mask_mode="no_self")
    r = random.Random(3)
    assert all(m.sample_successor(0, r) == 1 for _ in range(50))


def test_sample_uniform_frequencies():
    m = make_model()
    r = random.Random(7)
    counts = [0] * 4
    n = 100_000
    for _ in range(n):
        counts[m.sample_successor(0, r)] += 1
    for c in counts:
        assert abs(c / n - 0.25) < 0.01


def test_sample_matches_floored_softmax():
    # three ops without self-succession: the successors of 0 are 1 and 2
    m = make_model(
        n_atomic=3, mask_mode="no_self", weights={(0, 1): 5.0},
        temperature=1.0, exploration_floor=0.1,
    )
    expected = dict(
        apply_exploration_floor(m.transition_distribution(0, [1, 2]), 0.1)
    )[1]
    r = random.Random(11)
    n = 100_000
    hits = sum(m.sample_successor(0, r) == 1 for _ in range(n))
    assert abs(hits / n - expected) < 0.01


def test_sample_out_of_range_op_raises_on_every_call():
    m = make_model(n_atomic=3, mask_mode="no_self")
    r = random.Random(5)
    m.sample_successor(0, r)  # memos filled for a valid op
    for op in (-1, 3, 7):
        for _ in range(3):
            with pytest.raises(DomainError, match="outside vocabulary"):
                m.sample_successor(op, r)


def test_remembered_successors_follow_vocabulary_changes():
    m = make_model(n_atomic=2, mask_mode="no_self")
    r = random.Random(8)
    m.sample_successor(0, r)  # remembers 0 -> (1,)
    m.add_macro(0, 1).uses = 5  # id 2
    assert {m.sample_successor(0, r) for _ in range(200)} == {1, 2}
    assert m.prune_macros(1) == [2]
    assert {m.sample_successor(0, r) for _ in range(200)} == {1}
    # A pruned op may still be a from-op: it goes on to any eligible op.
    assert {m.sample_successor(2, r) for _ in range(200)} == {0, 1}


def test_new_weights_after_a_draw_replace_the_remembered_row():
    m = GcaModel(["a", "b", "c"])
    r = random.Random(0)
    m.sample_successor(0, r)  # remembers the uniform row of 0
    m.weights = PairTable({(0, 2): 50.0})
    # the stale uniform row would give 2, 1, 0, 1, 1, 2, 0, 1 here
    assert [m.sample_successor(0, r) for _ in range(8)] == [2] * 8


def test_new_weights_mapping_becomes_a_table_and_replaces_rows():
    m = make_model(n_atomic=3)
    m.floored_distribution(0, [0, 1, 2])
    m.weights = {(0, 1): 50.0}
    assert isinstance(m.weights, PairTable)
    assert m.weights == {(0, 1): 50.0}
    assert m.floored_distribution(0, [0, 1, 2]) == make_model(
        n_atomic=3, weights={(0, 1): 50.0}
    ).floored_distribution(0, [0, 1, 2])


def test_new_params_after_a_draw_replace_the_remembered_rows():
    m = make_model(n_atomic=3, weights={(0, 1): 1.0})
    m.sample_successor(0, random.Random(3))
    m.floored_distribution(0, [1, 2])
    m.params = GcaParams(temperature=0.01)
    fresh = make_model(n_atomic=3, weights={(0, 1): 1.0}, temperature=0.01)
    assert m.floored_distribution(0, [1, 2]) == fresh.floored_distribution(0, [1, 2])
    draws = [m.sample_successor(0, random.Random(s)) for s in range(40)]
    assert draws == [fresh.sample_successor(0, random.Random(s)) for s in range(40)]


def test_new_mask_mode_after_a_draw_replaces_the_successor_lists():
    m = make_model(n_atomic=3)
    r = random.Random(4)
    assert 0 in {m.sample_successor(0, r) for _ in range(100)}
    m.mask_mode = "no_self"
    assert {m.sample_successor(0, r) for _ in range(100)} == {1, 2}


def test_draw_is_the_first_cumulative_above_the_variate():
    class Fixed:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    cum = [0.25, 0.5, 0.75, 0.99]  # a total rounded short of 1
    assert [draw(cum, Fixed(u)) for u in (0.0, 0.25, 0.6, 0.9)] == [0, 1, 2, 3]
    assert draw(cum, Fixed(0.995)) == 3  # past the total: the last index


class FixedVariate:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def random_scores(rng, k):
    """k scores in one of several shapes: small, wide, tied or nearly tied."""
    shape = rng.randrange(4)
    if shape == 0:
        return [rng.uniform(-3.0, 3.0) for _ in range(k)]
    if shape == 1:
        return [rng.choice((-1, 1)) * 10 ** rng.uniform(-12, 300) for _ in range(k)]
    if shape == 2:
        return [rng.choice((0.0, 0.5, 2.0)) for _ in range(k)]
    base = rng.uniform(-1.0, 1.0)
    return [base + rng.choice((0.0, 1e-15, 2e-16)) for _ in range(k)]


EPSILONS = (1e-12, 1e-6, 0.1, 0.5, 1 - 1e-6, 1 - 1e-12)

# Two and three scores, the choice's own paths: ties, signed zeros, a gap
# whose smaller exponential is subnormal or zero, nearly equal scores.
SHORT_ROWS = [
    [0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1.5, 1.5], [-2.0, -2.0],
    [0.0, 700.0], [700.0, 0.0], [-350.0, 350.0], [0.0, 740.0], [0.0, 745.5], [1e300, -1e300],
    [0.25, 0.25 + 2**-54], [0.1, 0.2], [-3.0, 2.5],
    [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [2.0, 2.0, 1.0], [1.0, 2.0, 2.0],
    [0.0, 700.0, 0.0], [700.0, 0.0, 740.0], [0.0, 745.5, 1.0], [0.5, 0.5 + 2**-53, 0.5],
    [-3.0, 2.5, 0.1],
    # Not finite, as an infinite coefficient makes a score: the last index.
    [math.inf, 0.0], [0.0, math.nan], [math.nan, 0.0, 1.0], [1.0, math.inf, math.inf],
]


def softmax_choice_cases(rng):
    """4000 random rows, then every short row at every epsilon, each with
    a seed."""
    for _ in range(4000):
        k = rng.randint(2, 8)
        scores = random_scores(rng, k)
        eps = rng.choice(EPSILONS)
        yield scores, eps, rng.randrange(2**32)
    for scores in SHORT_ROWS:
        for eps in EPSILONS:
            yield scores, eps, rng.randrange(2**32)


def test_add_up_adds_left_to_right_on_every_version():
    # (1e16 + 1.0) rounds back to 1e16; sum() compensates from 3.12 on
    # and would give 1.0.
    assert add_up([1e16, 1.0, -1e16]) == 0.0
    assert add_up(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3
    assert add_up([]) == 0.0


def test_softmax_floor_choice_matches_draw_over_the_accumulated_row():
    for scores, eps, seed in softmax_choice_cases(random.Random(14)):
        reference, mine = random.Random(seed), random.Random(seed)
        cum = list(accumulate(softmax_floor(scores, eps)))
        assert softmax_floor_choice(scores, eps, mine) == draw(cum, reference), (scores, eps)
        assert mine.getstate() == reference.getstate()  # one variate each
        # A variate on a running sum, or just either side of it.
        for c in cum:
            for u in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0)):
                if 0.0 <= u < 1.0:
                    variate = FixedVariate(u)
                    assert softmax_floor_choice(scores, eps, variate) == draw(cum, variate)


def test_softmax_floor_choice_past_the_total_is_the_last_index():
    scores, eps = [1.0, 0.1], 0.15
    u = 1 - 2**-53  # the largest variate random() returns
    cum = list(accumulate(softmax_floor(scores, eps)))
    assert cum[-1] <= u  # the running sum never exceeds the variate
    assert softmax_floor_choice(scores, eps, FixedVariate(u)) == 1
    assert draw(cum, FixedVariate(u)) == 1


# Logits as the swarm's scores make them and beyond: ties, signed zeros,
# infinities and NaN (an infinite coefficient), and spreads wide enough to
# leave an exponential subnormal or zero.
EDGE_LOGITS = st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, math.inf, -math.inf, math.nan, 700.0, -745.5, 1e308, -1e308]
)
LOGITS = st.lists(st.floats(-1e308, 1e308) | EDGE_LOGITS, min_size=1, max_size=9)
OPEN_EPSILON = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def same_floats(a, b):
    """Equal lists of floats, NaN equal to NaN and -0.0 apart from 0.0."""
    return [repr(x) for x in a] == [repr(x) for x in b]


@settings(max_examples=400, deadline=None)
@given(logits=LOGITS, eps=OPEN_EPSILON, seed=st.integers(0, 2**32 - 1))
def test_softmax_floor_sums_scan_picks_what_the_choice_picks(logits, eps, seed):
    sums = softmax_floor_sums(logits, eps)
    assert same_floats(sums, list(accumulate(softmax_floor(logits, eps)))[:-1])
    scan, choice = random.Random(seed), random.Random(seed)
    assert bisect_right(sums, scan.random()) == softmax_floor_choice(logits, eps, choice)
    assert scan.getstate() == choice.getstate()
    # A variate on a running sum, or just either side of it.
    for c in sums:
        for u in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0)):
            if 0.0 <= u < 1.0:
                assert bisect_right(sums, u) == softmax_floor_choice(logits, eps, FixedVariate(u))


# -- pair update ----------------------------------------------------------------


def test_pair_update_decay_only_branch():
    m = make_model(weights={(0, 1): 1.0, (2, 3): 0.5}, decay=0.2)
    m.hebbian_pair_update([0], [1], -1.0)
    assert m.weights[(0, 1)] == 1.0 * 0.8
    assert m.weights[(2, 3)] == 0.5 * 0.8
    assert m.weights.support() == {}


def test_pair_update_symmetric_outer_product():
    m = make_model(learning_rate=0.15, decay=0.0)
    m.hebbian_pair_update([1], [2], 2.0)
    assert m.weights[(1, 2)] == pytest.approx(0.3, abs=1e-15)
    assert m.weights[(2, 1)] == pytest.approx(0.3, abs=1e-15)
    assert set(m.weights) == {(1, 2), (2, 1)}
    assert m.weights.support() == {(1, 2): 1, (2, 1): 1}


def test_pair_update_zero_counts_pure_decay():
    m = make_model(weights={(0, 1): 2.0}, decay=0.25)
    m.hebbian_pair_update([], [], 5.0)
    assert m.weights == {(0, 1): 1.5}
    assert m.weights.support() == {}


def test_pair_update_respects_mask():
    # co-active pairs (0, 1), (1, 0) and (1, 1); the self-pair is masked
    m = make_model(n_atomic=2, mask_mode="no_self", learning_rate=0.15, decay=0.0)
    m.hebbian_pair_update([0, 1], [1], 2.0)
    assert set(m.weights) == {(0, 1), (1, 0)}


def test_pair_update_rejects_id_past_the_vocabulary():
    m = make_model()
    with pytest.raises(DomainError, match="operation id 4 outside vocabulary of size 4"):
        m.hebbian_pair_update([0, 1], [1, 4], 1.0)


@pytest.mark.parametrize("gain", [2.0, 0.0, -1.0])
def test_pair_update_negative_id_raises_before_any_change(gain):
    # Whatever the gain, a negative id in either parent is rejected with
    # weights, support and sampling rows unchanged, decay included, rather
    # than counted as an id from the end of the vocabulary.
    m = make_model(weights={(0, 1): 1.0, (2, 3): 0.5}, support={(0, 1): 2}, decay=0.5)
    row = m.floored_distribution(0, [1, 2, 3])
    rows = dict(m._row_cache)
    for ops in (([-1, 1], [1, 3, 3]), ([1, 3, 3], [-1, 1])):
        with pytest.raises(DomainError, match="operation id -1 outside vocabulary"):
            m.hebbian_pair_update(*ops, gain)
    assert m.weights == {(0, 1): 1.0, (2, 3): 0.5}
    assert m.weights.support() == {(0, 1): 2}
    assert m._row_cache == rows and m.floored_distribution(0, [1, 2, 3]) == row


def test_pair_update_locality():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 6)
        weights = {
            (rng.randrange(n), rng.randrange(n)): rng.uniform(0.1, 3)
            for _ in range(rng.randint(1, 8))
        }
        decay = rng.uniform(0, 0.5)
        m = make_model(n_atomic=n, weights=weights, decay=decay, learning_rate=0.2)
        a = [rng.randint(0, 2) for _ in range(n)]
        b = [rng.randint(0, 2) for _ in range(n)]
        m.hebbian_pair_update(ops_with_counts(a), ops_with_counts(b), 1.0)
        for (i, j), before in weights.items():
            term = a[i] * b[j] + b[i] * a[j]
            if term == 0:
                assert m.weights[(i, j)] == pytest.approx(
                    before * (1 - decay), rel=1e-12
                )


def test_pair_update_fitness_modulation():
    base = dict(weights={(0, 1): 1.0}, learning_rate=0.15, decay=0.2)
    a = [0, 0, 1]  # counts 2, 1, 0, 0
    b = [1, 2]     # counts 0, 1, 1, 0
    m1 = make_model(**base)
    m2 = make_model(**base)
    m1.hebbian_pair_update(a, b, 1.0)
    m2.hebbian_pair_update(a, b, 2.0)
    decayed = 1.0 * 0.8
    for key in m1.weights:
        inc1 = m1.weights[key] - (decayed if key == (0, 1) else 0.0)
        inc2 = m2.weights[key] - (decayed if key == (0, 1) else 0.0)
        if inc1:
            assert inc2 == pytest.approx(2 * inc1, rel=1e-12)


# -- trajectory update ---------------------------------------------------------


def test_trajectory_update_short_trajectory_decay_only():
    m = make_model(weights={(0, 1): 1.0}, decay=0.5)
    m.hebbian_trajectory_update([0], 3.0)
    assert m.weights == {(0, 1): 0.5}
    assert m.weights.support() == {}


def test_trajectory_update_counts_adjacent_pairs():
    m = make_model(learning_rate=0.15, decay=0.0)
    m.hebbian_trajectory_update([0, 1, 0, 1], 1.0)
    assert m.weights[(0, 1)] == pytest.approx(0.3, abs=1e-15)
    assert m.weights[(1, 0)] == pytest.approx(0.15, abs=1e-15)
    assert m.weights.support() == {(0, 1): 2, (1, 0): 1}


def test_trajectory_update_nonpositive_gain():
    m = make_model(weights={(0, 1): 1.0}, decay=0.2)
    m.hebbian_trajectory_update([0, 1, 2], 0.0)
    assert m.weights == {(0, 1): 0.8}
    assert m.weights.support() == {}


@pytest.mark.parametrize("ops", [[0, 5, -1], [0, 1, 2], [-1, 0], [2]])
def test_trajectory_update_rejects_ids_outside_vocabulary(ops):
    m = make_model(n_atomic=2, weights={(0, 1): 1.0}, support={(0, 1): 2}, decay=0.5)
    with pytest.raises(DomainError, match="outside vocabulary"):
        m.hebbian_trajectory_update(ops, 1.0)
    # Nothing changed, decay included, and the model still round-trips.
    assert m.weights == {(0, 1): 1.0}
    assert m.weights.support() == {(0, 1): 2}
    assert deserialize_model(serialize_model(m)) == m


@pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
def test_updates_reject_non_finite_gain_before_any_change(gain):
    m = make_model(n_atomic=2, weights={(0, 1): 1.0}, support={(0, 1): 2}, decay=0.5)
    with pytest.raises(DomainError, match="gain must be finite"):
        m.hebbian_trajectory_update([0, 1, 0], gain)
    with pytest.raises(DomainError, match="gain must be finite"):
        m.hebbian_pair_update([0, 1], [0, 1], gain)
    # Nothing changed, decay included, and the model still round-trips.
    assert m.weights == {(0, 1): 1.0}
    assert m.weights.support() == {(0, 1): 2}
    assert deserialize_model(serialize_model(m)) == m


@pytest.mark.parametrize(
    "update, gain, counts",
    [("trajectory", 1e308, None),  # learning_rate * gain overflows
     ("pair", 1e308, [1, 1]),
     ("pair", 5e307, [2, 1]),      # finite, but not times the largest pair term, 8
     # Every increment is finite (1e308; the pair terms are 2), but the
     # second call's sum with the first call's weight is not.
     ("trajectory twice", 1e308, None),
     ("pair twice", 5e307, [1, 1, 0])],
)
def test_updates_reject_overflowing_increment_before_any_change(update, gain, counts):
    twice = update.endswith(" twice")
    if twice:
        m = make_model(n_atomic=3, learning_rate=1.0, decay=0.0)
    else:
        m = make_model(n_atomic=2, weights={(0, 1): 1.0}, support={(0, 1): 2}, decay=0.5,
                       learning_rate=2.0)

    def call():
        if update.startswith("trajectory"):
            m.hebbian_trajectory_update([0, 1], gain)
        else:
            ops = ops_with_counts(counts)
            m.hebbian_pair_update(ops, ops, gain)

    if twice:
        call()
    weights, support = dict(m.weights.items()), m.weights.support()
    with pytest.raises(DomainError, match="increment must be finite"):
        call()
    # Nothing changed, decay included, and the model still round-trips.
    assert m.weights == weights and m.weights.support() == support
    assert deserialize_model(serialize_model(m)) == m


def test_trajectory_repeating_a_pair_checks_the_sum_of_its_increments():
    m = make_model(n_atomic=2, learning_rate=1.0, decay=0.0)
    m.hebbian_trajectory_update([0, 1, 1, 0, 1], 5e307)  # (0, 1) twice
    assert m.weights == {(0, 1): 1e308, (1, 1): 5e307, (1, 0): 5e307}
    with pytest.raises(DomainError, match="increment must be finite"):
        m.hebbian_trajectory_update([1, 0, 1, 0, 1], 5e307)  # (0, 1) twice more
    assert m.weights == {(0, 1): 1e308, (1, 1): 5e307, (1, 0): 5e307}
    assert m.weights.support() == {(0, 1): 2, (1, 1): 1, (1, 0): 1}


def test_updates_with_non_positive_gain_ignore_the_increment():
    # a negative gain reinforces nothing, so a huge one only decays
    m = make_model(n_atomic=2, weights={(0, 1): 1.0}, decay=0.5, learning_rate=2.0)
    m.hebbian_trajectory_update([0, 1], -1e308)
    m.hebbian_pair_update([0, 1], [0, 1], -1e308)
    assert m.weights == {(0, 1): 0.25}
    assert m.weights.support() == {}


def test_pair_update_rejects_non_finite_parent_fitness():
    # inf - inf: the gain over parents of infinite fitness is NaN, though
    # no fitness is
    m = make_model(n_atomic=2, weights={(0, 1): 1.0}, decay=0.5)
    with pytest.raises(DomainError, match="gain must be finite"):
        m.hebbian_pair_update([0, 1], [0, 1], math.inf - 0.5 * (math.inf + 0.0))
    assert m.weights == {(0, 1): 1.0}


def test_decay_contraction_property(rng):
    for _ in range(50):
        n = rng.randint(2, 5)
        weights = {
            (rng.randrange(n), rng.randrange(n)): rng.uniform(0.01, 9)
            for _ in range(rng.randint(1, 10))
        }
        decay = rng.uniform(0, 1)
        m = make_model(n_atomic=n, weights=weights, decay=decay)
        m.hebbian_pair_update([], [], -1.0)
        for key, before in weights.items():
            assert m.weights[key] == before * (1 - decay)


# -- lift ----------------------------------------------------------------------


def test_lift_zero_weight_is_zero():
    m = make_model(weights={(1, 0): 0.7})
    assert m.compute_lift(0, 1) == 0.0


def test_lift_zero_marginal_gives_sentinel():
    m = make_model(n_atomic=2, weights={(0, 1): 0.6}, mask_mode="no_self")
    assert m.compute_lift(0, 1) == math.inf


def test_lift_uniform_weights():
    n = 4
    c = 0.5
    weights = {(i, j): c for i in range(n) for j in range(n)}
    m = make_model(n_atomic=n, weights=weights)
    for i in range(n):
        for j in range(n):
            assert m.compute_lift(i, j) == pytest.approx(1 / c, rel=1e-12)


def test_lift_no_self_mask_excludes_diagonal():
    weights = {(0, 1): 1.0, (0, 0): 100.0, (1, 1): 100.0}
    m = make_model(n_atomic=2, weights=weights, mask_mode="no_self")
    # marginals only see the off-diagonal entries
    col = m.weights.get((1, 0), 0.0)  # column of 0 under the mask
    assert m.compute_lift(0, 1) == math.inf if col == 0 else True


# -- abstraction ---------------------------------------------------------------


def qualifying_model(**overrides):
    """Vocab of 4 with exactly one pair clearing every gate at the
    published thresholds (0.3 / 3 / 1.4)."""
    weights = {(0, 1): 0.5, (2, 3): 0.1, (3, 2): 0.1}
    support = {(0, 1): 5}
    args = dict(weights=weights, support=support)
    args.update(overrides)
    return make_model(**args)


def test_scan_creates_single_macro():
    m = qualifying_model()
    assert m.compute_lift(0, 1) >= 1.4
    created = m.scan_and_abstract(generation=10)
    assert len(created) == 1
    macro = created[0]
    assert (macro.left, macro.right) == (0, 1)
    assert macro.id == 4
    assert m.vocab_size == 5
    assert macro.created_at_generation == 10


def test_scan_weight_gate():
    m = qualifying_model(weights={(0, 1): 0.3, (2, 3): 0.1, (3, 2): 0.1})
    assert m.scan_and_abstract(10) == []


def test_scan_support_gate():
    m = qualifying_model(support={(0, 1): 2})
    assert m.scan_and_abstract(10) == []


def test_scan_lift_gate():
    # heavy uniform background pushes the pair's lift below threshold
    weights = {(i, j): 1.0 for i in range(4) for j in range(4)}
    weights[(0, 1)] = 1.2
    m = make_model(weights=weights, support={(0, 1): 5})
    assert m.compute_lift(0, 1) < 1.4
    assert m.scan_and_abstract(10) == []


def test_scan_existing_macro_not_recreated():
    m = qualifying_model()
    first = m.scan_and_abstract(10)
    assert len(first) == 1
    assert m.scan_and_abstract(20) == []


def test_scan_cap_and_order():
    weights = {(0, 1): 0.9, (1, 2): 0.8, (2, 3): 0.7, (3, 0): 0.6}
    support = {k: 10 for k in weights}
    m = make_model(weights=weights, support=support)
    created = m.scan_and_abstract(10, k_max_new=2)
    assert [(c.left, c.right) for c in created] == [(0, 1), (1, 2)]


def test_scan_negative_cap_raises_before_any_change():
    weights = {(0, 1): 0.9, (1, 2): 0.8, (2, 3): 0.7}
    m = make_model(weights=weights, support={k: 10 for k in weights})
    with pytest.raises(DomainError, match="k_max_new must be >= 0"):
        m.scan_and_abstract(1, k_max_new=-1)
    assert m.macros == [] and m.vocab_size == 4
    assert m.scan_and_abstract(1, k_max_new=0) == []
    assert len(m.scan_and_abstract(1, k_max_new=3)) == 3


def test_scan_soundness_recheck():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 5)
        weights = {
            (rng.randrange(n), rng.randrange(n)): rng.uniform(0, 1.2)
            for _ in range(rng.randint(0, 12))
        }
        support = {k: rng.randint(0, 8) for k in weights}
        m = make_model(n_atomic=n, weights=weights, support=support)
        snapshot = make_model(n_atomic=n, weights=weights, support=support)
        t = snapshot.params
        created = m.scan_and_abstract(5)
        for macro in created:
            i, j = macro.left, macro.right
            assert snapshot.weights.get((i, j), 0.0) > t.weight_min
            assert snapshot.weights.support().get((i, j), 0) >= t.support_min
            assert snapshot.compute_lift(i, j) >= t.lift_min


def _reference_scan(m, k):
    """The first k qualifying pairs of a model, in (-w, i, j) order, with
    every gate and the lift written out from their definitions."""
    t = m.params
    w, support = m.weights, m.weights.support()
    pruned = {mac.id for mac in m.macros if mac.pruned}
    promoted = {(mac.left, mac.right) for mac in m.macros if not mac.pruned}

    def valid(i, j):
        return not (m.mask_mode == "no_self" and i == j) and not {i, j} & pruned

    def mean(pairs):
        total, count = 0.0, 0
        for pair in pairs:
            if valid(*pair):
                total += w.get(pair, 0.0)
                count += 1
        return total / count if count else 0.0

    def lift(i, j):
        ks = range(m.vocab_size)
        denom = mean((x, i) for x in ks) * mean((j, x) for x in ks)
        if denom == 0.0:
            return math.inf if w.get((i, j), 0.0) > 0 else 0.0
        return w.get((i, j), 0.0) / denom

    cands = sorted(
        (-wij, i, j)
        for (i, j), wij in w.items()
        if wij > t.weight_min
        and support.get((i, j), 0) >= t.support_min
        and valid(i, j)
        and (i, j) not in promoted
        and lift(i, j) >= t.lift_min
    )
    return [(i, j) for _, i, j in cands[:k]]


@pytest.mark.parametrize("mask_mode", ["all", "no_self"])
def test_scan_promotes_exactly_the_first_k_qualifying_pairs(mask_mode):
    rng = random.Random(17)
    t = GcaParams()
    promoted = judged_past_a_rejection = 0
    for trial in range(300):
        m = make_model(n_atomic=rng.randint(2, 5), mask_mode=mask_mode)
        for _ in range(rng.randint(0, 4)):
            m.add_macro(rng.randrange(m.vocab_size), rng.randrange(m.vocab_size))
        for mac in m.macros:
            mac.pruned = rng.random() < 0.4
        n = m.vocab_size
        weights = {}
        if trial % 3 == 0:
            # Flat heavy rows over all ops but the last: the heaviest
            # gated pairs have a lift near 1 and fail that gate, while a
            # lighter pair into the last op's empty column can pass.
            weights = {(i, j): rng.uniform(1.0, 1.5) for i in range(n - 1) for j in range(n - 1)}
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 25))]
        # Pairs already promoted, so that gate is met too.
        pairs += [(mac.left, mac.right) for mac in m.macros if rng.random() < 0.5]
        for p in pairs:
            # Weights on and around the weight gate, 0.0 and inf among them.
            weights[p] = rng.choice([rng.uniform(0, 1.5), 0.9, t.weight_min, 0.0, math.inf])
        counts = {p: rng.choice([rng.randint(0, 6), t.support_min]) for p in weights}
        m.weights = PairTable(weights, counts)
        k = rng.randint(1, 4)
        expected = _reference_scan(m, k)
        heaviest = min(
            ((-w, i, j) for (i, j), w in weights.items()
             if w > t.weight_min and counts[i, j] >= t.support_min),
            default=None,
        )
        if expected and heaviest[1:] != expected[0]:
            judged_past_a_rejection += 1
        created = m.scan_and_abstract(3, k)
        assert [(mac.left, mac.right) for mac in created] == expected
        promoted += len(created)
    assert promoted > 50 and judged_past_a_rejection > 30


# -- expansion -----------------------------------------------------------------


def test_expand_averages_constituents():
    m = make_model(weights={(0, 2): 0.4, (1, 2): 0.2, (2, 0): 0.6, (2, 1): 0.0})
    macro = m.add_macro(0, 1, generation=7)
    assert (macro.id, macro.created_at_generation) == (4, 7)
    assert m.macros == [macro]
    assert m.vocab_size == 5
    assert m.weights[(4, 2)] == pytest.approx((0.4 + 0.2) / 2)
    assert m.weights[(2, 4)] == pytest.approx((0.6 + 0.0) / 2)
    assert (4, 4) not in m.weights


def test_expand_zero_constituents_zero_rows():
    m = make_model()
    m.add_macro(0, 1)
    assert m.vocab_size == 5
    assert m.weights == {}


def test_expand_preserves_existing_entries():
    weights = {(0, 1): 0.25, (1, 2): 1.5, (3, 3): 0.125}
    m = make_model(weights=weights)
    m.add_macro(1, 2)
    for key, value in weights.items():
        assert m.weights[key] == value


def test_expand_rejects_unknown_constituent():
    m = make_model()
    for left, right in ((0, 4), (4, 0), (-1, 0)):
        with pytest.raises(DomainError):
            m.add_macro(left, right)
    assert m.vocab_size == 4 and m.macros == []


def test_vocab_size_is_derived_not_given():
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1)])
    assert m.vocab_size == 5
    with pytest.raises(TypeError):
        GcaModel(atomic_ops=["a", "b"], vocab_size=2)


# -- pruning -------------------------------------------------------------------


def test_prune_ineffective_macro():
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1, uses=10, successful_uses=0)])
    assert m.prune_macros(u_min=5) == [4]
    assert m.macros[0].pruned
    assert 4 not in m.sampling_vocabulary()


def test_prune_grace_period():
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1, uses=2, successful_uses=0)])
    assert m.prune_macros(u_min=5) == []
    assert not m.macros[0].pruned


def test_prune_without_grace_skips_unused_macros():
    m = make_model(macros=[
        MacroOperation(id=4, left=0, right=1),
        MacroOperation(id=5, left=1, right=2, uses=1),
    ])
    assert m.prune_macros(u_min=0) == [5]


def test_prune_keeps_effective_macro():
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1, uses=10, successful_uses=5)])
    assert m.prune_macros(u_min=5) == []


# -- flattening ----------------------------------------------------------------


def test_flatten_atomic():
    m = make_model()
    assert m.flatten_macro(2) == [2]


def test_flatten_simple_macro():
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1)])
    assert m.flatten_macro(4) == [0, 1]
    m.flatten_macro(4).append(3)  # each call returns a fresh list
    assert m.flatten_macro(4) == [0, 1]


def test_flatten_nested_macro():
    m = make_model(
        macros=[
            MacroOperation(id=4, left=0, right=1),
            MacroOperation(id=5, left=4, right=2),
        ]
    )
    assert m.flatten_macro(5) == [0, 1, 2]
    assert m.flatten_sequence([5, 3]) == [0, 1, 2, 3]


# Vocabulary size V = 5: ids from -2V-1 to 2V, the negative ones that a
# list index would wrap round onto an op among them, one past any
# unsigned 64-bit int, and a float.
@pytest.mark.parametrize("op", [-11, -10, -6, -5, -1, 5, 6, 7, 8, 9, 10, 2**64, 7.5])
def test_flatten_rejects_ids_outside_vocabulary(op):
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1)])  # vocab_size 5
    with pytest.raises(DomainError, match="outside vocabulary"):
        m.flatten_sequence([op])
    with pytest.raises(DomainError, match="outside vocabulary"):
        m.flatten_sequence([0, 4, op])
    with pytest.raises(DomainError, match="outside vocabulary"):
        m.flatten_macro(op)


@pytest.mark.parametrize("op", [1.5, 2.0, -0.0, None, "1"])
def test_flatten_rejects_ids_that_are_not_ints(op):
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1)])
    with pytest.raises(TypeError):
        m.flatten_sequence([0, 4, op])
    assert m.flatten_sequence([True, 4]) == [1, 0, 1]  # a bool indexes as an int


@pytest.mark.parametrize(
    "macros",
    [
        [MacroOperation(id=4, left=4, right=0)],  # constituent is the macro itself
        [MacroOperation(id=4, left=0, right=5)],  # constituent above the macro
        [MacroOperation(id=4, left=-1, right=0)],  # negative constituent
        [MacroOperation(id=5, left=0, right=1)],  # id skips 4
        [MacroOperation(id=4, left=0, right=1), MacroOperation(id=4, left=1, right=2)],
        [MacroOperation(id=3, left=0, right=1)],  # id of an atom
    ],
)
def test_construction_rejects_malformed_macro_library(macros):
    with pytest.raises(InternalError, match="needs id"):
        make_model(macros=macros)


def test_flatten_ids_strictly_increase_after_scans():
    m = qualifying_model()
    m.scan_and_abstract(10)
    for macro in m.macros:
        assert macro.left < macro.id and macro.right < macro.id
        flat = m.flatten_macro(macro.id)
        assert len(flat) >= 2
        assert all(op < m.atomic_count for op in flat)


# -- serialization ---------------------------------------------------------------


def test_round_trip_empty_model():
    m = GcaModel(["N", "E", "S", "W"])
    assert deserialize_model(serialize_model(m)) == m


def test_round_trip_populated_model():
    rng = random.Random(1)
    m = random_model(rng)
    text = serialize_model(m)
    again = deserialize_model(text)
    assert again == m
    assert serialize_model(again) == text


def test_round_trip_int_valued_hyperparameters_is_byte_exact():
    params = GcaParams(
        temperature=1, learning_rate=0, decay=1, weight_min=0, lift_min=2, effectiveness_min=0
    )
    m = make_model(weights={(0, 1): 3})
    m.params = params
    text = serialize_model(m)
    doc = json.loads(text)
    assert doc["tau"] == 1.0 and isinstance(doc["tau"], float)
    assert isinstance(doc["thresholds"]["s"], int)
    assert serialize_model(deserialize_model(text)) == text


def test_round_trip_100_random_models():
    rng = random.Random(2024)
    for _ in range(100):
        m = random_model(rng)
        assert deserialize_model(serialize_model(m)) == m


def test_model_equality_and_round_trip_see_support_counts():
    weights = {(0, 1): 0.5, (1, 2): 0.25}
    a = make_model(weights=weights, support={(0, 1): 3, (1, 2): 1})
    assert a == make_model(weights=weights, support={(0, 1): 3, (1, 2): 1})
    assert a != make_model(weights=weights, support={(0, 1): 3, (1, 2): 2})
    assert a != make_model(weights=weights, support={(0, 1): 3})
    rng = random.Random(7)
    checked = 0
    for _ in range(50):
        m = random_model(rng)
        again = deserialize_model(serialize_model(m))
        assert again == m and again.weights.support() == m.weights.support()
        assert again.weights._counts == [m.weights.support().get(p, 0) for p in again.weights]
        if m.weights:
            again.weights._counts[0] += 1
            assert again != m
            checked += 1
    assert checked > 30


def test_serialize_matches_json_dumps_byte_for_byte():
    names = ['q"uote', "back\\slash", "nul\u0000", "plain"]
    cases = [
        ({}, {}),
        ({(0, 1): 5e-324, (1, 0): 1e20, (2, 3): 1.0, (3, 3): 2, (4, 0): 0.1 + 0.2},
         {(0, 1): 1, (2, 3): 12}),
        ({(1, 2): 3.0}, {}),
    ]
    for weights, support in cases:
        m = make_model(weights=weights, support=support)
        m.atomic_ops = list(names)
        m.add_macro(0, 1, generation=3).uses = 2
        m.weights = PairTable(weights, support)  # without the macro's seeds
        p = m.params
        doc = {
            "version": 1,
            "atomic_ops": names,
            "vocab_size": 5,
            "tau": p.temperature,
            "epsilon": p.exploration_floor,
            "lambda": p.learning_rate,
            "gamma": p.decay,
            "thresholds": {
                "w": p.weight_min, "s": p.support_min, "l": p.lift_min,
                "eff": p.effectiveness_min,
            },
            "weights": [[i, j, float(v)] for (i, j), v in sorted(weights.items())],
            "support": [[i, j, c] for (i, j), c in sorted(support.items())],
            "macros": [{
                "id": 4, "left": 0, "right": 1, "uses": 2, "successful_uses": 0,
                "created_at_generation": 3, "pruned": False,
            }],
        }
        assert serialize_model(m) == json.dumps(doc, indent=2)
    assert serialize_model(GcaModel(["a"])) == json.dumps({
        "version": 1, "atomic_ops": ["a"], "vocab_size": 1, "tau": 1.0, "epsilon": 0.1,
        "lambda": 0.15, "gamma": 0.2, "thresholds": {"w": 0.3, "s": 3, "l": 1.4, "eff": 0.1},
        "weights": [], "support": [], "macros": [],
    }, indent=2)


def test_hyperparameter_table_lists_every_field_once():
    # one row per field, in field order, of three columns
    assert [name for _, _, name in HYPERPARAMETERS] == [
        f.name for f in dataclasses.fields(GcaParams)
    ]
    for column in range(2):
        keys = [row[column] for row in HYPERPARAMETERS]
        assert len(set(keys)) == len(keys)


def _mangled(model, mutate):
    doc = json.loads(serialize_model(model))
    mutate(doc)
    return json.dumps(doc)


def test_negative_weight_rejected():
    m = make_model(weights={(0, 1): 0.5})
    text = _mangled(m, lambda d: d["weights"][0].__setitem__(2, -0.5))
    with pytest.raises(ParseError, match="negative weight"):
        deserialize_model(text)


@pytest.mark.parametrize("weights, support, message", [
    ({(0, 1): 0.5}, [[0, 1, 2], [1, 0, 4]],
     r"support\[1\]: support for \(1, 0\), which has no weight entry"),
    ({}, [[0, 0, 4]], r"support\[0\]: support for \(0, 0\), which has no weight entry"),
    ({(0, 1): 0.5, (0, 0): 0.25}, [[0, 0, 0], [0, 1, 2]],
     r"support\[0\]: support count must be >= 1, got 0"),
])
def test_support_entry_needs_a_weight_and_a_count(weights, support, message):
    text = _mangled(make_model(weights=weights), lambda d: d.__setitem__("support", support))
    with pytest.raises(ParseError, match=message):
        deserialize_model(text)


@pytest.mark.parametrize("table, entries", [
    ("weights", [[0, 1, 0.5], [1, 0, 0.5], [0, 1, 0.25]]),
    ("support", [[0, 1, 2], [1, 0, 1], [0, 1, 3]]),
])
def test_duplicate_table_entries_rejected(table, entries):
    m = make_model(weights={(0, 1): 0.5, (1, 0): 0.5})
    text = _mangled(m, lambda d: d.__setitem__(table, entries))
    with pytest.raises(ParseError, match=re.escape(f"{table}[2]: duplicate entry (0, 1)")):
        deserialize_model(text)


def test_malformed_json_rejected():
    with pytest.raises(ParseError, match="not valid JSON"):
        deserialize_model("{nope")
    # A key given twice: the last value would win unseen.
    text = serialize_model(make_model()).replace('"tau": 1.0', '"tau": -5.0,\n  "tau": 1.0')
    with pytest.raises(ParseError) as caught:
        deserialize_model(text)
    assert str(caught.value) == "model document: key 'tau' given twice in one object"


def test_bad_macro_ordering_rejected():
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1)])
    text = _mangled(m, lambda d: d["macros"][0].__setitem__("left", 4))
    with pytest.raises(ParseError, match="smaller ids"):
        deserialize_model(text)


def test_out_of_range_weight_id_rejected():
    m = make_model(weights={(0, 1): 0.5})
    text = _mangled(m, lambda d: d["weights"][0].__setitem__(1, 9))
    with pytest.raises(ParseError, match="outside vocabulary"):
        deserialize_model(text)


@pytest.mark.parametrize("table, entry", [
    ("weights", [True, 1, 0.5]),
    ("weights", [0, False, 0.5]),
    ("support", [0, 1, True]),
    ("support", [True, 1, 2]),
    # the other malformed triples of a chain spec's target_bigrams
    ("weights", ["0", 1, 0.5]),  # string id
    ("weights", [0.0, 1, 0.5]),  # float id
    ("weights", [0, 1, False]),  # bool value
    ("weights", [0, 1]),  # two long
    ("weights", [0, 1, 0.5, 0.5]),  # four long
    ("weights", 5),  # not a list
])
def test_boolean_ids_and_counts_rejected(table, entry):
    m = make_model(weights={(0, 1): 0.5}, support={(0, 1): 2})
    text = _mangled(m, lambda d: d[table].__setitem__(0, entry))
    noun, kind = {"weights": ("weight", "float"), "support": ("count", "int")}[table]
    message = (f"{table}[0] must be [from, to, {noun}] with integer ids and a {noun} of type "
               f"{kind}, got {entry!r}")
    with pytest.raises(ParseError) as caught:
        deserialize_model(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("where, key, value", [
    ("model", "lamda", 0.15),
    ("thresholds", "ww", 0.3),
    ("macros[0]", "prunned", True),
])
def test_unknown_model_keys_rejected(where, key, value):
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1)])
    accepted = []

    def plant(doc):
        parts = {"model": doc, "thresholds": doc["thresholds"], "macros[0]": doc["macros"][0]}
        accepted.extend(sorted(parts[where]))  # a saved model holds every key it may
        parts[where][key] = value

    text = _mangled(m, plant)
    with pytest.raises(ParseError) as caught:
        deserialize_model(text)
    assert str(caught.value) == (
        f"unknown key(s) in {where}: {key} (accepted: {', '.join(accepted)})"
    )


def test_macro_without_pruned_flag_loads_active():
    m = make_model(macros=[MacroOperation(id=4, left=0, right=1, pruned=True)])
    again = deserialize_model(_mangled(m, lambda d: d["macros"][0].pop("pruned")))
    assert again.macros[0].pruned is False


def test_params_validated():
    with pytest.raises(ConfigError):
        GcaParams(temperature=0.0).validate()
    with pytest.raises(ConfigError):
        GcaParams(exploration_floor=1.0).validate()
    GcaParams(learning_rate=0.0).validate()  # neutral guidance is legal


@pytest.mark.parametrize(
    "name, value",
    [("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -math.inf),
     ("temperature", math.inf), ("temperature", math.nan)],
)
def test_params_reject_non_finite(name, value):
    # a NaN learning rate would store NaN weights that the model's own
    # loader rejects
    with pytest.raises(ConfigError, match=rf"{name} must lie in [(\[]0, inf\)"):
        GcaParams(**{name: value}).validate()


@pytest.mark.parametrize(
    "name, value",
    [("weight_min", -1.0), ("support_min", -4), ("lift_min", -2.0),
     ("effectiveness_min", 7.0), ("effectiveness_min", -0.1)],
)
def test_thresholds_validated(name, value):
    params = GcaParams()
    setattr(params, name, value)
    with pytest.raises(ConfigError, match=f"{name} must"):
        params.validate()


def test_threshold_range_ends_are_legal():
    for values in ({"weight_min": 0.0, "support_min": 0, "lift_min": 0.0, "effectiveness_min": 0.0},
                   {"effectiveness_min": 1.0}):
        GcaParams(**values).validate()


def test_finite_json_keeps_integers_and_rejects_overflowing_literals():
    doc = finite_json("[0, -0, 7, -12, 2.5, 1e3]")
    assert doc == [0, 0, 7, -12, 2.5, 1000.0]
    assert [type(x) for x in doc] == [int, int, int, int, float, float]
    for text in ("NaN", "-Infinity", "1e999", "1" + "0" * 400, "-" + "9" * 400):
        with pytest.raises(ValueError, match="non-finite number"):
            finite_json(f"[{text}]")
