"""Stateful property test of the transition model: random sequences of
learning, abstraction, pruning, vocabulary growth and save/load, with the
model's invariants checked after every step."""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from ace.gca import (
    GcaModel,
    GcaParams,
    GcaThresholds,
    apply_exploration_floor,
    deserialize_model,
    serialize_model,
)

GAINS = st.floats(-1.0, 2.0, allow_nan=False)


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
            thresholds=GcaThresholds(
                weight_min=0.1, support_min=1, lift_min=0.5, effectiveness_min=0.5
            ),
        )
        self.model = GcaModel(
            atomic_ops=[f"a{i}" for i in range(n_atomic)], params=params, mask_mode=mask_mode
        )

    def _op(self, data):
        return data.draw(st.integers(0, self.model.vocab_size - 1))

    @rule(data=st.data(), gain=GAINS)
    def trajectory_update(self, data, gain):
        ops = data.draw(st.lists(st.integers(0, self.model.vocab_size - 1), max_size=6))
        self.model.hebbian_trajectory_update(ops, gain)

    @rule(data=st.data(), fits=st.tuples(GAINS, GAINS, GAINS))
    def pair_update(self, data, fits):
        counts = st.lists(st.integers(0, 3), min_size=self.model.vocab_size,
                          max_size=self.model.vocab_size)
        self.model.hebbian_pair_update(data.draw(counts), data.draw(counts), *fits)

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

    @rule(data=st.data(), won=st.booleans())
    def credit_macro(self, data, won):
        if self.model.macros:
            m = data.draw(st.sampled_from(self.model.macros))
            m.uses += 1
            m.successful_uses += won

    @rule(u_min=st.integers(0, 3))
    def prune(self, u_min):
        for op in self.model.prune_macros(u_min):
            assert self.model.is_pruned(op)

    @rule(data=st.data(), seed=st.integers(0, 2**16))
    def sample(self, data, seed):
        op = self._op(data)
        nxt = self.model.sample_successor(op, random.Random(seed))
        assert nxt in self.model.sampling_vocabulary()

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
    def support_only_on_valid_pairs(self):
        m = self.model
        for (i, j), c in m.support.items():
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
            assert list(m.floored_distribution(op, vocab)) == fresh

    @invariant()
    def round_trip_exact(self):
        text = serialize_model(self.model)
        again = deserialize_model(text)
        assert again == self.model
        assert serialize_model(again) == text


GcaModelMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestGcaModelMachine = GcaModelMachine.TestCase
