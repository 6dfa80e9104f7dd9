"""Stateful property test of the transition model: random sequences of
learning, abstraction, pruning, vocabulary growth, hyperparameter swaps
and save/load, with the model's invariants checked after every step."""

from __future__ import annotations

import random
from itertools import accumulate

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from ace.gca import (
    GcaModel,
    GcaParams,
    PairTable,
    apply_exploration_floor,
    deserialize_model,
    serialize_model,
)

GAINS = st.floats(-1.0, 2.0, allow_nan=False)
# An in-range GcaParams, all eight hyperparameters drawn.
PARAMS = st.builds(
    GcaParams,
    temperature=st.floats(0.05, 8.0),
    exploration_floor=st.floats(1e-6, 0.999),
    learning_rate=st.floats(0.0, 2.0),
    decay=st.floats(0.0, 1.0),
    weight_min=st.floats(0.0, 1.0),
    support_min=st.integers(0, 4),
    lift_min=st.floats(0.0, 2.0),
    effectiveness_min=st.floats(0.0, 1.0),
)


class GcaModelMachine(RuleBasedStateMachine):
    @initialize(
        n_atomic=st.integers(2, 4),
        mask_mode=st.sampled_from(["all", "no_self"]),
        decay=st.sampled_from([0.0, 0.1, 1.0]),
    )
    def start(self, n_atomic, mask_mode, decay):
        # Lenient gates, so that scans promote pairs within a few steps.
        params = GcaParams(
            learning_rate=0.5,
            decay=decay,
            weight_min=0.1,
            support_min=1,
            lift_min=0.5,
            effectiveness_min=0.5,
        )
        self.model = GcaModel(
            atomic_ops=[f"a{i}" for i in range(n_atomic)], params=params, mask_mode=mask_mode
        )
        # (model, live_macros(), (macros, live macros)) after the last rule.
        self.seen = None

    def _op(self, data):
        return data.draw(st.integers(0, self.model.vocab_size - 1))

    @rule(data=st.data(), gain=GAINS)
    def trajectory_update(self, data, gain):
        ops = data.draw(st.lists(st.integers(0, self.model.vocab_size - 1), max_size=6))
        self.model.hebbian_trajectory_update(ops, gain)

    @rule(data=st.data(), gain=GAINS)
    def pair_update(self, data, gain):
        ops = st.lists(st.integers(0, self.model.vocab_size - 1), max_size=8)
        self.model.hebbian_pair_update(data.draw(ops), data.draw(ops), gain)

    @rule(generation=st.integers(0, 100), k=st.integers(1, 3))
    def scan(self, generation, k):
        before = self.model.vocab_size
        created = self.model.scan_and_abstract(generation, k)
        assert [m.id for m in created] == list(range(before, before + len(created)))

    @rule(data=st.data(), generation=st.integers(0, 100))
    def add_macro(self, data, generation):
        before = self.model.vocab_size
        macro = self.model.add_macro(self._op(data), self._op(data), generation)
        assert macro.id == before and self.model.macros[-1] is macro

    @rule(data=st.data(), uses=st.integers(1, 4))
    def credit_macro(self, data, uses):
        if self.model.macros:
            m = data.draw(st.sampled_from(self.model.macros))
            m.uses += uses
            m.successful_uses += data.draw(st.integers(0, uses))

    @rule(u_min=st.integers(0, 3))
    def prune(self, u_min):
        for op in self.model.prune_macros(u_min):
            assert self.model.is_pruned(op)

    @rule(data=st.data(), seed=st.integers(0, 2**16))
    def sample(self, data, seed):
        op = self._op(data)
        nxt = self.model.sample_successor(op, random.Random(seed))
        assert nxt in self.model.sampling_vocabulary()

    @rule(params=PARAMS)
    def set_params(self, params):
        # A warm start's step: the donor takes the run's hyperparameters.
        params.validate()
        self.model.params = params

    @rule()
    def save_and_load(self):
        text = serialize_model(self.model)
        loaded = deserialize_model(text)
        loaded.mask_mode = self.model.mask_mode
        self.model = loaded

    @invariant()
    def weights_non_negative(self):
        assert all(w >= 0.0 for w in self.model.weights.values())

    @invariant()
    def weight_table_consistent(self):
        # Slot k holds the pair _keys[k], and the row index leads back to
        # it; the rows hold one entry per slot, the value and count lists
        # one per slot, and the mapping view reads the values.  No row is
        # empty, and _top bounds every weight.
        w = self.model.weights
        assert isinstance(w, PairTable)
        assert all(w._rows[i][j] == slot for slot, (i, j) in enumerate(w._keys))
        assert sum(map(len, w._rows.values())) == len(w._keys)
        assert len(w) == len(w._keys) == len(w._values) == len(w._counts)
        assert [w[key] for key in w] == w._values
        assert dict(w.items()) == dict(zip(w._keys, w._values))
        assert all(w._rows.values()) and all(v <= w._top for v in w._values)

    @invariant()
    def support_only_on_valid_pairs(self):
        m = self.model
        assert all(c >= 0 for c in m.weights._counts)
        for (i, j), c in m.weights.support().items():
            assert c >= 1 and (i, j) in m.weights
            assert 0 <= i < m.vocab_size and 0 <= j < m.vocab_size
            assert not (m.mask_mode == "no_self" and i == j)

    @invariant()
    def vocabulary_consistent(self):
        m = self.model
        assert m.vocab_size == m.atomic_count + len(m.macros)
        for k, macro in enumerate(m.macros):
            assert macro.id == m.atomic_count + k
            assert 0 <= macro.left < macro.id and 0 <= macro.right < macro.id
            assert 0 <= macro.successful_uses <= macro.uses
        # The kept sampling vocabulary: a rule that prunes or adds a macro
        # without clearing it fails here.
        fresh = (*range(m.atomic_count), *(x.id for x in m.macros if not x.pruned))
        assert m.sampling_vocabulary() == fresh

    @invariant()
    def live_view_consistent(self):
        # The live macros are the unpruned ones with their flattened ids,
        # and the sampling vocabulary is the atoms and then their ids.
        m = self.model
        live = m.live_macros()
        unpruned = [x.id for x in m.macros if not x.pruned]
        assert live == tuple((op, tuple(m.flatten_macro(op))) for op in unpruned)
        assert m.sampling_vocabulary() == (*range(m.atomic_count), *(op for op, _ in live))
        # The view is kept: a rule that neither adds nor retires a macro
        # (nor loads a new model) leaves the very same tuple.
        sizes = (len(m.macros), len(live))
        if self.seen is not None and self.seen[0] is m and self.seen[2] == sizes:
            assert live is self.seen[1]
        self.seen = (m, live, sizes)

    @invariant()
    def partner_lists_match_valid_pair(self):
        # Pairs drawn from a generator seeded by the model's state, so the
        # run is reproducible: k is in i's ascending partner list exactly
        # when the relation admits (i, k).
        m = self.model
        n = m.vocab_size
        rng = random.Random(n * 7919 + len(m.weights))
        for _ in range(16):
            i, k = rng.randrange(n), rng.randrange(n)
            partners = m._partners(i)
            assert list(partners) == sorted(set(partners))
            assert (k in partners) == m.valid_pair(i, k)

    @invariant()
    def flattening_matches_recursive_expansion(self):
        m = self.model

        def expand(op):
            if op < m.atomic_count:
                return [op]
            macro = m.macros[op - m.atomic_count]
            return expand(macro.left) + expand(macro.right)

        ops = list(range(m.vocab_size))
        for op in ops:
            flat = m.flatten_macro(op)
            assert flat == expand(op)
            assert all(0 <= x < m.atomic_count for x in flat)
        assert m.flatten_sequence(ops) == [x for op in ops for x in expand(op)]

    @invariant()
    def floored_rows_match_fresh(self):
        # Reading the rows fills the memo, so a rule that changes weights
        # or the vocabulary without clearing it fails at the next step.
        m = self.model
        vocab = m.sampling_vocabulary()
        for op in range(m.vocab_size):
            fresh = apply_exploration_floor(
                m.transition_distribution(op, vocab), m.params.exploration_floor
            )
            assert list(m.floored_distribution(op, vocab)) == [p for _, p in fresh]

    @invariant()
    def successor_rows_match_fresh(self):
        # Sampling from every op fills both memos, so a rule that changes
        # the vocabulary, a pruned flag or a weight without clearing the
        # memo it invalidates fails at the next step.
        m = self.model
        rng = random.Random(0)
        vocab = m.sampling_vocabulary()
        for op in range(m.vocab_size):
            m.sample_successor(op, rng)
            ops = [j for j in vocab if m.valid_pair(op, j)] or vocab
            sums = list(accumulate(m.floored_distribution(op, ops)))[:-1]
            assert m._row_cache[op] == (tuple(ops), sums)

    @invariant()
    def round_trip_exact(self):
        text = serialize_model(self.model)
        again = deserialize_model(text)
        assert again == self.model
        assert serialize_model(again) == text


# Derandomized: every run draws the same examples, so a failure is
# reproducible and a pass is not luck.
GcaModelMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None, derandomize=True
)
TestGcaModelMachine = GcaModelMachine.TestCase
