"""Differential test of the pair table.

A reference model keeps its weights and support counts in two plain
dicts and applies the learning, abstraction and pruning rules as they
were written before both moved to one `PairTable`: decay multiplies each
entry in place, pair terms are summed in a dict, marginals read the
dict.  Random sequences of steps drive it and a `GcaModel` side by side;
after every step both must hold the same weights, bit for bit and in the
same key order, and the same support counts and macros.  Support is
compared as a dict: nothing reads it in insertion order.
"""

from __future__ import annotations

import math
import random

import pytest

from ace.errors import DomainError
from ace.gca import GcaModel, GcaParams, MacroOperation, PairTable

from helpers import ops_with_counts


class DictReference:
    """The transition model's update rules over a plain weight dict."""

    def __init__(self, n_atomic: int, params: GcaParams, mask_mode: str):
        self.params = params
        self.mask_mode = mask_mode
        self.vocab_size = n_atomic
        self.weights: dict[tuple[int, int], float] = {}
        self.support: dict[tuple[int, int], int] = {}
        self.macros: list[MacroOperation] = []

    def pruned(self) -> set[int]:
        return {m.id for m in self.macros if m.pruned}

    def valid(self, i: int, j: int) -> bool:
        pruned = self.pruned()
        return not (self.mask_mode == "no_self" and i == j) and i not in pruned and j not in pruned

    def decay(self) -> None:
        d = self.params.decay
        if d == 0.0:
            return
        for k in self.weights:
            self.weights[k] *= 1.0 - d

    def pair_update(self, ops_a, ops_b, gain) -> None:
        self.decay()
        if gain <= 0:
            return
        counts_a = [ops_a.count(i) for i in range(self.vocab_size)]
        counts_b = [ops_b.count(i) for i in range(self.vocab_size)]
        nz_a = [(i, c) for i, c in enumerate(counts_a) if c]
        nz_b = [(i, c) for i, c in enumerate(counts_b) if c]
        inc: dict[tuple[int, int], float] = {}
        for i, ca in nz_a:
            for j, cb in nz_b:
                inc[(i, j)] = inc.get((i, j), 0.0) + ca * cb
        for i, cb in nz_b:
            for j, ca in nz_a:
                inc[(i, j)] = inc.get((i, j), 0.0) + cb * ca
        scale = self.params.learning_rate * gain
        if scale == 0.0:
            return
        for key, term in inc.items():
            if term <= 0 or not self.valid(*key):
                continue
            self.weights[key] = self.weights.get(key, 0.0) + scale * term
            self.support[key] = self.support.get(key, 0) + 1

    def trajectory_update(self, ops, gain) -> None:
        self.decay()
        if gain <= 0 or len(ops) < 2:
            return
        scale = self.params.learning_rate * gain
        if scale == 0.0:
            return
        for key in zip(ops, ops[1:]):
            if self.valid(*key):
                self.weights[key] = self.weights.get(key, 0.0) + scale
                self.support[key] = self.support.get(key, 0) + 1

    def mean(self, op: int, into: bool):
        total, count = 0.0, 0
        for k in range(self.vocab_size):
            pair = (k, op) if into else (op, k)
            if self.valid(*pair):
                total += self.weights.get(pair, 0.0)
                count += 1
        return total / count if count else None

    def lift(self, i: int, j: int) -> float:
        w_ij = self.weights.get((i, j), 0.0)
        denom = (self.mean(i, True) or 0.0) * (self.mean(j, False) or 0.0)
        if denom == 0.0:
            return math.inf if w_ij > 0 else 0.0
        return w_ij / denom

    def scan(self, generation: int, k_max_new: int) -> None:
        t = self.params
        promoted = {(m.left, m.right) for m in self.macros if not m.pruned}
        cands = sorted(
            (-w, i, j)
            for (i, j), w in self.weights.items()
            if w > t.weight_min
            and self.support.get((i, j), 0) >= t.support_min
            and self.valid(i, j)
            and (i, j) not in promoted
            and self.lift(i, j) >= t.lift_min
        )
        for _, i, j in cands[:k_max_new]:
            self.add_macro(i, j, generation)

    def add_macro(self, left: int, right: int, generation: int) -> None:
        m = self.vocab_size
        w = self.weights
        for k in range(m):
            out = 0.5 * (w.get((left, k), 0.0) + w.get((right, k), 0.0))
            if out != 0.0:
                w[(m, k)] = out
            into = 0.5 * (w.get((k, left), 0.0) + w.get((k, right), 0.0))
            if into != 0.0:
                w[(k, m)] = into
        self.macros.append(
            MacroOperation(id=m, left=left, right=right, created_at_generation=generation)
        )
        self.vocab_size = m + 1

    def prune(self, u_min: int) -> None:
        theta = self.params.effectiveness_min
        for m in self.macros:
            if not m.pruned and m.uses >= u_min and m.uses and m.successful_uses / m.uses < theta:
                m.pruned = True


def exact(weights) -> list[tuple[tuple[int, int], str]]:
    """The entries in key order, each weight as float.hex text."""
    return [(key, float(weights[key]).hex()) for key in weights]


def run_sequence(seed: int) -> None:
    rng = random.Random(seed)
    n_atomic = rng.randint(2, 6)
    mask_mode = rng.choice(["all", "no_self"])
    params = GcaParams(
        learning_rate=rng.choice([0.0, 0.15, 0.5, 1.7]),
        decay=rng.choice([0.0, 0.1, 0.2, 1.0, rng.random()]),
        weight_min=rng.uniform(0.0, 0.3), support_min=rng.randint(1, 3),
        lift_min=rng.uniform(0.5, 1.5), effectiveness_min=rng.uniform(0.2, 0.6),
    )
    model = GcaModel(atomic_ops=[f"a{i}" for i in range(n_atomic)], params=params,
                     mask_mode=mask_mode)
    ref = DictReference(n_atomic, params, mask_mode)
    for step in range(rng.randint(10, 40)):
        n = model.vocab_size
        kind = rng.choices(["pair", "trajectory", "scan", "macro", "credit", "prune"],
                           weights=[5, 5, 2, 1, 2, 1])[0]
        if kind == "pair":
            counts = [[rng.choice([0, 0, 1, 2, 3]) for _ in range(n)] for _ in range(2)]
            fit_a, fit_b, fit_child = (rng.uniform(-1.0, 2.0) for _ in range(3))
            # The parents' ops, and the child's gain over their mean.
            ops = [ops_with_counts(cs) for cs in counts]
            gain = fit_child - 0.5 * (fit_a + fit_b)
            model.hebbian_pair_update(*ops, gain)
            ref.pair_update(*ops, gain)
        elif kind == "trajectory":
            ops = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
            gain = rng.uniform(-0.5, 2.0)
            model.hebbian_trajectory_update(ops, gain)
            ref.trajectory_update(ops, gain)
        elif kind == "scan":
            k = rng.randint(0, 3)
            model.scan_and_abstract(step, k)
            ref.scan(step, k)
        elif kind == "macro":
            left, right = rng.randrange(n), rng.randrange(n)
            model.add_macro(left, right, step)
            ref.add_macro(left, right, step)
        elif kind == "credit" and model.macros:
            k = rng.randrange(len(model.macros))
            uses = rng.randint(1, 4)
            won = rng.randint(0, uses)
            for m in (model.macros[k], ref.macros[k]):
                m.uses += uses
                m.successful_uses += won
        elif kind == "prune":
            u_min = rng.randint(0, 3)
            model.prune_macros(u_min)
            ref.prune(u_min)
        assert exact(model.weights) == exact(ref.weights), (seed, step, kind)
        assert model.weights.support() == ref.support, (seed, step, kind)
        assert model.macros == ref.macros, (seed, step, kind)
        assert model.vocab_size == ref.vocab_size


@pytest.mark.parametrize("block", range(4))
def test_table_matches_dict_reference(block):
    for seed in range(50 * block, 50 * block + 50):
        run_sequence(seed)


def random_table(rng: random.Random) -> PairTable:
    """A table built from random dicts, then, half the time, reinforced by
    random rows (a pair may recur) under a random decay factor."""
    n = rng.randint(1, 6)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
    weights = {pair: rng.choice([0.0, 0.5, rng.uniform(0, 9)]) for pair in pairs}
    support = {pair: rng.randint(0, 3) for pair in weights if rng.random() < 0.5}
    table = PairTable(weights, support)
    if rng.random() < 0.5:
        rows = []
        for _ in range(rng.randint(0, 5)):
            columns = [rng.randrange(n + 1) for _ in range(rng.randint(0, 4))]
            rows.append((rng.randrange(n + 1), columns, [rng.randint(1, 3) for _ in columns]))
        table.reinforce(rows, rng.uniform(0.01, 2.0), rng.choice([1.0, 0.5, rng.random()]))
    return table


@pytest.mark.parametrize("seed", range(20))
def test_entries_and_sorted_rows_read_the_mapping(seed):
    table = random_table(random.Random(seed))
    support = table.support()
    expected = [(pair, w, support.get(pair, 0)) for pair, w in table.items()]
    assert list(table.entries()) == expected  # slot order
    flat = []
    for i, columns, weights, counts in table.sorted_rows():
        assert columns == sorted(columns) and len(columns) == len(weights) == len(counts) > 0
        flat.extend(((i, j), w, c) for j, w, c in zip(columns, weights, counts))
    assert flat == sorted(expected)
    assert [i for i, *_ in table.sorted_rows()] == sorted({i for i, _ in table})
    assert all(w <= table._top for w in table.values())


def test_reinforce_adds_in_order_and_counts_each_occurrence():
    table = PairTable({(0, 1): 1.0}, {(0, 1): 2})
    table.reinforce([(0, [1, 2], [1, 2]), (2, [0], [3]), (0, [2], [1])], 0.5, 0.5)
    assert list(table.items()) == [((0, 1), 1.0), ((0, 2), 1.5), ((2, 0), 1.5)]
    assert table.support() == {(0, 1): 3, (0, 2): 2, (2, 0): 1}
    with pytest.raises(DomainError, match="keep every weight finite"):
        table.reinforce([(2, [0, 0], [1, 1])], 1e308, 1.0)
    assert list(table.items()) == [((0, 1), 1.0), ((0, 2), 1.5), ((2, 0), 1.5)]
    assert table.support() == {(0, 1): 3, (0, 2): 2, (2, 0): 1}
    # A weight near the top of the float range blocks only its own pair.
    table = PairTable({(0, 0): 1.5e308, (1, 1): 1.0})
    table.reinforce([(1, [1, 0], [1, 1])], 1e307, 1.0)
    assert table == {(0, 0): 1.5e308, (1, 1): 1.0 + 1e307, (1, 0): 1e307}
    with pytest.raises(DomainError):
        table.reinforce([(0, [0], [1])], 1e308, 1.0)


def test_table_is_a_live_mapping():
    table = PairTable({(0, 1): 0.5, (2, 0): 0.0}, {(0, 1): 3})
    items = table.items()
    assert table.add((1, 1), 0.25)
    assert list(table) == [(0, 1), (2, 0), (1, 1)]
    assert list(items) == [((0, 1), 0.5), ((2, 0), 0.0), ((1, 1), 0.25)]
    assert table == {(2, 0): 0.0, (1, 1): 0.25, (0, 1): 0.5}
    assert {(2, 0): 0.0, (1, 1): 0.25, (0, 1): 0.5} == table
    assert table != {(0, 1): 0.5}
    assert len(table) == 3 and (2, 0) in table and (3, 3) not in table
    assert table.get((3, 3), 0.0) == 0.0 and table.get((2, 0)) == 0.0
    assert table.row_weights(1, [1, 3, 0]) == [0.25, 0.0, 0.0]
    assert table.column_weights(1, [1, 3, 0]) == [0.25, 0.0, 0.5]
    # An added pair has no count; support lists only pairs with one.
    assert table.support() == {(0, 1): 3} and table._counts == [3, 0, 0]
    with pytest.raises(TypeError):
        table[(0, 1)] = 1.0  # read-only: weights change through the model
    table.scale(0.0)
    assert table == {(0, 1): 0.0, (2, 0): 0.0, (1, 1): 0.0}
    assert table.support() == {(0, 1): 3}
    with pytest.raises(KeyError):
        PairTable({}, {(0, 0): 1})  # a count needs a weight


def test_add_and_set_count_fill_a_table_in_order():
    table = PairTable()
    assert table.add((2, 1), 0.5) and table.add((0, 3), 0.25) and table.add((2, 0), 0.0)
    assert not table.add((2, 1), 9.0)  # stored already: left as it is
    assert list(table.entries()) == [((2, 1), 0.5, 0), ((0, 3), 0.25, 0), ((2, 0), 0.0, 0)]
    assert table._top == 0.5
    assert table.set_count((0, 3), 4) == 0 and table.set_count((0, 3), 5) == 4
    assert table.support() == {(0, 3): 5}
    with pytest.raises(KeyError):
        table.set_count((3, 0), 1)  # a count needs a weight
    assert table == PairTable({(2, 1): 0.5, (0, 3): 0.25, (2, 0): 0.0}, {(0, 3): 5})


def test_missing_pair_raises_key_error_naming_it():
    table = PairTable({(0, 1): 0.5, (2, 0): 0.0})
    for pair in [(1, 0), (0, 2)]:  # no row 1; row 0 without column 2
        with pytest.raises(KeyError) as caught:
            table[pair]
        assert caught.value.args == (pair,)
        assert pair not in table and table.get(pair) is None
    assert 5 not in table and (0, 1, 2) not in table


def test_table_equality_compares_counts():
    a = PairTable({(0, 1): 0.5, (1, 0): 0.25}, {(0, 1): 3})
    assert a == PairTable({(1, 0): 0.25, (0, 1): 0.5}, {(0, 1): 3})
    assert a == PairTable({(0, 1): 0.5, (1, 0): 0.25}, {(0, 1): 3, (1, 0): 0})
    assert a != PairTable({(0, 1): 0.5, (1, 0): 0.25}, {(0, 1): 4})
    assert a != PairTable({(0, 1): 0.5, (1, 0): 0.25})
    assert a != PairTable({(0, 1): 0.5, (1, 0): 0.5}, {(0, 1): 3})
    # A plain mapping holds weights only, so it compares weights only.
    assert a == {(0, 1): 0.5, (1, 0): 0.25}


def test_model_weights_stay_a_table():
    model = GcaModel(atomic_ops=["a", "b"], weights={(0, 1): 0.5})
    assert isinstance(model.weights, PairTable) and model.weights == {(0, 1): 0.5}
    assert model.weights.support() == {}
    table = PairTable({(0, 0): 1.0}, {(0, 0): 2})
    model = GcaModel(atomic_ops=["a", "b"], weights=table)
    assert model.weights is table
    # The counts live in the table only: the model has no support field.
    with pytest.raises(AttributeError):
        model.support
    with pytest.raises(TypeError):
        GcaModel(atomic_ops=["a"], support={})
