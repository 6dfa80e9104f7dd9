from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace.errors import ConfigError, DomainError, ParseError
from ace.gca import (
    GcaParams,
    MacroOperation,
    apply_exploration_floor,
    deserialize_model,
    fresh_model,
    serialize_model,
)

from helpers import make_model, random_model


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
    m = make_model()
    r = random.Random(3)
    assert all(m.sample_successor(0, [2], r) == 2 for _ in range(50))


def test_sample_uniform_frequencies():
    m = make_model()
    r = random.Random(7)
    counts = [0] * 4
    n = 100_000
    for _ in range(n):
        counts[m.sample_successor(0, [0, 1, 2, 3], r)] += 1
    for c in counts:
        assert abs(c / n - 0.25) < 0.01


def test_sample_matches_floored_softmax():
    m = make_model(weights={(0, 1): 5.0}, temperature=1.0, exploration_floor=0.1)
    expected = dict(
        apply_exploration_floor(m.transition_distribution(0, [1, 2]), 0.1)
    )[1]
    r = random.Random(11)
    n = 100_000
    hits = sum(m.sample_successor(0, [1, 2], r) == 1 for _ in range(n))
    assert abs(hits / n - expected) < 0.01


# -- pair update ----------------------------------------------------------------


def test_pair_update_decay_only_branch():
    m = make_model(weights={(0, 1): 1.0, (2, 3): 0.5}, decay=0.2)
    gain = m.hebbian_pair_update([1, 0, 0, 0], [0, 1, 0, 0], 5.0, 5.0, 4.0)
    assert gain == -1.0
    assert m.weights[(0, 1)] == 1.0 * 0.8
    assert m.weights[(2, 3)] == 0.5 * 0.8
    assert m.support == {}


def test_pair_update_symmetric_outer_product():
    m = make_model(learning_rate=0.15, decay=0.0)
    e1 = [0, 1, 0, 0]
    e2 = [0, 0, 1, 0]
    m.hebbian_pair_update(e1, e2, 0.0, 0.0, 2.0)
    assert m.weights[(1, 2)] == pytest.approx(0.3, abs=1e-15)
    assert m.weights[(2, 1)] == pytest.approx(0.3, abs=1e-15)
    assert set(m.weights) == {(1, 2), (2, 1)}
    assert m.support == {(1, 2): 1, (2, 1): 1}


def test_pair_update_zero_counts_pure_decay():
    m = make_model(weights={(0, 1): 2.0}, decay=0.25)
    m.hebbian_pair_update([0] * 4, [0] * 4, 0.0, 0.0, 5.0)
    assert m.weights == {(0, 1): 1.5}
    assert m.support == {}


def test_pair_update_respects_mask():
    # co-active pairs (0, 1), (1, 0) and (1, 1); the self-pair is masked
    m = make_model(n_atomic=2, mask_mode="no_self", learning_rate=0.15, decay=0.0)
    m.hebbian_pair_update([1, 1], [0, 1], 0.0, 0.0, 2.0)
    assert set(m.weights) == {(0, 1), (1, 0)}


def test_pair_update_length_mismatch():
    m = make_model()
    with pytest.raises(DomainError):
        m.hebbian_pair_update([1, 0], [0, 1, 0, 0], 0.0, 0.0, 1.0)


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
        m.hebbian_pair_update(a, b, 0.0, 0.0, 1.0)
        for (i, j), before in weights.items():
            term = a[i] * b[j] + b[i] * a[j]
            if term == 0:
                assert m.weights[(i, j)] == pytest.approx(
                    before * (1 - decay), rel=1e-12
                )


def test_pair_update_fitness_modulation():
    base = dict(weights={(0, 1): 1.0}, learning_rate=0.15, decay=0.2)
    a = [2, 1, 0, 0]
    b = [0, 1, 1, 0]
    m1 = make_model(**base)
    m2 = make_model(**base)
    m1.hebbian_pair_update(a, b, 0.0, 0.0, 1.0)
    m2.hebbian_pair_update(a, b, 0.0, 0.0, 2.0)
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
    assert m.support == {}


def test_trajectory_update_counts_adjacent_pairs():
    m = make_model(learning_rate=0.15, decay=0.0)
    m.hebbian_trajectory_update([0, 1, 0, 1], 1.0)
    assert m.weights[(0, 1)] == pytest.approx(0.3, abs=1e-15)
    assert m.weights[(1, 0)] == pytest.approx(0.15, abs=1e-15)
    assert m.support == {(0, 1): 2, (1, 0): 1}


def test_trajectory_update_nonpositive_gain():
    m = make_model(weights={(0, 1): 1.0}, decay=0.2)
    m.hebbian_trajectory_update([0, 1, 2], 0.0)
    assert m.weights == {(0, 1): 0.8}
    assert m.support == {}


def test_decay_contraction_property(rng):
    for _ in range(50):
        n = rng.randint(2, 5)
        weights = {
            (rng.randrange(n), rng.randrange(n)): rng.uniform(0.01, 9)
            for _ in range(rng.randint(1, 10))
        }
        decay = rng.uniform(0, 1)
        m = make_model(n_atomic=n, weights=weights, decay=decay)
        m.hebbian_pair_update([0] * n, [0] * n, 1.0, 1.0, 0.0)
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
    assert m.pair_qualifies(0, 1)
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
        t = snapshot.params.thresholds
        created = m.scan_and_abstract(5)
        for macro in created:
            i, j = macro.left, macro.right
            assert snapshot.weights.get((i, j), 0.0) > t.weight_min
            assert snapshot.support.get((i, j), 0) >= t.support_min
            assert snapshot.compute_lift(i, j) >= t.lift_min


# -- expansion -----------------------------------------------------------------


def test_expand_averages_constituents():
    m = make_model(weights={(0, 2): 0.4, (1, 2): 0.2, (2, 0): 0.6, (2, 1): 0.0})
    macro = MacroOperation(id=4, left=0, right=1)
    m.macros.append(macro)
    m.expand_weight_matrix(macro)
    assert m.vocab_size == 5
    assert m.weights[(4, 2)] == pytest.approx((0.4 + 0.2) / 2)
    assert m.weights[(2, 4)] == pytest.approx((0.6 + 0.0) / 2)
    assert (4, 4) not in m.weights


def test_expand_zero_constituents_zero_rows():
    m = make_model()
    macro = MacroOperation(id=4, left=0, right=1)
    m.macros.append(macro)
    m.expand_weight_matrix(macro)
    assert m.vocab_size == 5
    assert m.weights == {}


def test_expand_preserves_existing_entries():
    weights = {(0, 1): 0.25, (1, 2): 1.5, (3, 3): 0.125}
    m = make_model(weights=weights)
    macro = MacroOperation(id=4, left=1, right=2)
    m.macros.append(macro)
    m.expand_weight_matrix(macro)
    for key, value in weights.items():
        assert m.weights[key] == value


def test_expand_rejects_wrong_id():
    m = make_model()
    with pytest.raises(DomainError):
        m.expand_weight_matrix(MacroOperation(id=7, left=0, right=1))


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


def test_flatten_nested_macro():
    m = make_model(
        macros=[
            MacroOperation(id=4, left=0, right=1),
            MacroOperation(id=5, left=4, right=2),
        ]
    )
    assert m.flatten_macro(5) == [0, 1, 2]
    assert m.flatten_sequence([5, 3]) == [0, 1, 2, 3]


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
    m = fresh_model(["N", "E", "S", "W"])
    assert deserialize_model(serialize_model(m)) == m


def test_round_trip_populated_model():
    rng = random.Random(1)
    m = random_model(rng)
    text = serialize_model(m)
    again = deserialize_model(text)
    assert again == m
    assert serialize_model(again) == text


def test_round_trip_100_random_models():
    rng = random.Random(2024)
    for _ in range(100):
        m = random_model(rng)
        assert deserialize_model(serialize_model(m)) == m


def _mangled(model, mutate):
    doc = json.loads(serialize_model(model))
    mutate(doc)
    return json.dumps(doc)


def test_negative_weight_rejected():
    m = make_model(weights={(0, 1): 0.5})
    text = _mangled(m, lambda d: d["weights"][0].__setitem__(2, -0.5))
    with pytest.raises(ParseError, match="negative weight"):
        deserialize_model(text)


def test_malformed_json_rejected():
    with pytest.raises(ParseError, match="not valid JSON"):
        deserialize_model("{nope")


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


def test_params_validated():
    with pytest.raises(ConfigError):
        GcaParams(temperature=0.0).validate()
    with pytest.raises(ConfigError):
        GcaParams(exploration_floor=1.0).validate()
    GcaParams(learning_rate=0.0).validate()  # neutral guidance is legal
