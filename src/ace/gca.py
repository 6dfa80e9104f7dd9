"""Learned transition model over an operation vocabulary.

The model keeps a sparse weight matrix over ordered operation pairs, a
co-occurrence support count per pair, and a library of composite macro
operations promoted out of strong pairs.  Sampling is a temperature
softmax over a successor set, mixed with a uniform exploration floor so
no valid transition ever starves.  Learning is gradient-free: weights of
co-active operation pairs are reinforced in proportion to the fitness
gain of the trajectory that produced them, with multiplicative decay on
every update event.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from array import array
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate, chain

from .errors import ConfigError, DomainError, InternalError, ParseError, check_range, read_fields
from .errors import read_file, read_triples

FORMAT_VERSION = 1

# Pair promotion defaults: minimum uses before a macro may be pruned, and
# the cap on promotions per scan.
DEFAULT_PRUNE_MIN_USES = 5
DEFAULT_MAX_NEW_MACROS = 3


@dataclass
class GcaParams:
    """Hyperparameters of the transition model.

    temperature and exploration_floor shape sampling; learning_rate and
    decay shape the reinforcement update. learning_rate may be zero to
    neutralize guidance entirely (useful for ablation arms).  The four
    gates promote an operation pair into a macro and retire macros that
    stopped earning their keep.
    """

    temperature: float = 1.0
    exploration_floor: float = 0.1
    learning_rate: float = 0.15
    decay: float = 0.2
    weight_min: float = 0.3     # pair weight must strictly exceed this
    support_min: int = 3        # minimum co-occurrence count
    lift_min: float = 1.4       # pair weight vs product of marginal means
    effectiveness_min: float = 0.1  # usage-weighted success rate floor

    def validate(self) -> None:
        check_range("temperature", self.temperature, 0, math.inf, open_low=True, open_high=True)
        check_range("exploration_floor", self.exploration_floor, 0, 1, open_low=True, open_high=True)
        check_range("learning_rate", self.learning_rate, 0, math.inf, open_high=True)
        check_range("decay", self.decay, 0, 1)
        for name in ("weight_min", "support_min", "lift_min"):
            check_range(name, getattr(self, name), 0)
        check_range("effectiveness_min", self.effectiveness_min, 0, 1)


# Every hyperparameter once, in GcaParams field order: (suite-config key,
# model-file key, field).  Types are the fields' annotations.
HYPERPARAMETERS = (
    ("tau", "tau", "temperature"),
    ("epsilon", "epsilon", "exploration_floor"),
    ("lambda", "lambda", "learning_rate"),
    ("gamma", "gamma", "decay"),
    ("theta_w", "w", "weight_min"),
    ("theta_s", "s", "support_min"),
    ("theta_l", "l", "lift_min"),
    ("theta_eff", "eff", "effectiveness_min"),
)


@dataclass
class MacroOperation:
    """A composite operation built from two existing vocabulary items.

    Constituents carry strictly smaller ids than the macro, and neither
    they nor the id change once the macro is made.  Pruned macros keep
    their id and weight entries; they only leave the sampling vocabulary.
    """

    id: int
    left: int
    right: int
    uses: int = 0
    successful_uses: int = 0
    created_at_generation: int = 0
    pruned: bool = False


def apply_exploration_floor(
    probs: list[tuple[int, float]], epsilon: float
) -> list[tuple[int, float]]:
    """Mix a distribution with the uniform one: p' = (1-eps)*p + eps/k."""
    check_range("exploration floor", epsilon, 0, 1, open_low=True, open_high=True)
    if not probs:
        raise DomainError("no valid successors")
    floor = epsilon / len(probs)
    keep = 1.0 - epsilon
    return [(op, keep * p + floor) for op, p in probs]


def add_up(values) -> float:
    """The floats added one at a time from 0.0, left to right.  Every sum
    that reaches a record goes through it, so records round the same way
    on every Python version (sum() of floats rounds otherwise from 3.12
    on)."""
    total = 0.0
    for x in values:
        total += x
    return total


def softmax_floor(logits: list[float], epsilon: float) -> list[float]:
    """Softmax of the logits mixed with the uniform distribution:
    (1-eps) * e/z + eps/k over the k entries, as apply_exploration_floor
    would mix the softmax."""
    check_range("exploration floor", epsilon, 0, 1, open_low=True, open_high=True)
    if not logits:
        raise DomainError("no valid successors")
    m = max(logits)
    exps = [math.exp(x - m) for x in logits]
    z = add_up(exps)
    keep = 1.0 - epsilon
    floor = epsilon / len(exps)
    return [keep * (e / z) + floor for e in exps]


def softmax_floor_choice(logits: list[float], epsilon: float, rng: random.Random) -> int:
    """One inverse-CDF draw from softmax_floor(logits, epsilon) in a single
    pass: the first index whose running sum (accumulate's, same floats in
    the same order) exceeds one rng.random() variate, else the last index.
    The caller checks epsilon; logits must not be empty.

    Two or three logits, every scored step of a swarm without macros on a
    four-neighbour grid, take the same floats in the same order without
    the lists: m is max()'s (the first largest), add_up() of two or three
    floats is their left-to-right sum, and the running sums stop where
    the loop would."""
    k = len(logits)
    if k == 2:
        a, b = logits
        m = b if b > a else a
        ea, eb = math.exp(a - m), math.exp(b - m)
        return 0 if (1.0 - epsilon) * (ea / (ea + eb)) + epsilon / 2 > rng.random() else 1
    if k == 3:
        a, b, c = logits
        m = b if b > a else a
        m = c if c > m else m
        ea, eb, ec = math.exp(a - m), math.exp(b - m), math.exp(c - m)
        z = ea + eb + ec
        keep = 1.0 - epsilon
        floor = epsilon / 3
        u = rng.random()
        total = keep * (ea / z) + floor
        if total > u:
            return 0
        return 1 if total + (keep * (eb / z) + floor) > u else 2
    m = max(logits)
    exps = [math.exp(x - m) for x in logits]
    z = add_up(exps)
    keep = 1.0 - epsilon
    floor = epsilon / len(exps)
    u = rng.random()
    total = 0.0  # 0.0 + p is p: the first sum is accumulate's first entry
    for i, e in enumerate(exps):
        total += keep * (e / z) + floor
        if total > u:
            return i
    return len(exps) - 1


def softmax_floor_sums(logits: list[float], epsilon: float) -> list[float]:
    """The running sums of softmax_floor(logits, epsilon) but the last:
    the floats softmax_floor_choice compares with its variate, in its
    order.  bisect_right(sums, rng.random()) picks what
    softmax_floor_choice(logits, epsilon, rng) picks from the same rng
    state, the first index whose sum exceeds the variate, else the last:
    the sums never decrease, as each adds a positive float, or are all
    NaN (a NaN or infinite logit), and then both pick the last index."""
    return list(accumulate(softmax_floor(logits, epsilon)))[:-1]


class PairTable(Mapping):
    """The stored pairs: each ordered pair (i, j) has a slot, numbered in
    first-write order, and its weight and support count (0 when no
    co-occurrence was recorded) sit at that index in two parallel lists.
    The row index _rows[i][j] gives the slot through int-keyed dicts, so
    a reader of one row hashes no pair; _keys[slot] is the slot's pair.
    _top is an upper bound on every stored weight, so that an update can
    most often rule out an overflow without reading a pair.

    It reads as a mapping from pair to weight, in first-write order.  An
    entry is never removed; one decayed to 0.0 stays stored.  Equality
    with another table compares the counts too.
    """

    __slots__ = ("_rows", "_keys", "_values", "_counts", "_top")

    def __init__(self, weights: Mapping = {}, support: Mapping = {}):
        self._rows: dict[int, dict[int, int]] = {}
        self._keys: list[tuple[int, int]] = []
        self._values: list[float] = []
        self._counts: list[int] = []
        self._top = 0.0
        for key, value in weights.items():
            self.add(key, value)
        for key, count in support.items():
            self.set_count(key, count)

    def _slot(self, key) -> int:
        try:
            i, j = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        row = self._rows.get(i)
        if row is None or j not in row:
            raise KeyError(key)
        return row[j]

    def __getitem__(self, key):
        return self._values[self._slot(key)]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other):
        if isinstance(other, PairTable):
            return dict(self.items()) == dict(other.items()) and self.support() == other.support()
        return super().__eq__(other)

    def support(self) -> dict:
        """Pair -> support count for every pair with a count of 1 or more."""
        return {key: c for key, c in zip(self._keys, self._counts) if c}

    def row_weights(self, i: int, columns, divisor: float = 1.0) -> list[float]:
        """The weights of the pairs (i, j) for the given columns j, in
        order, each over divisor; 0.0 for an absent one."""
        row = self._rows.get(i)
        if row is None:
            return [0.0] * len(columns)
        values = self._values
        return [0.0 if k is None else values[k] / divisor for k in map(row.get, columns)]

    def column_weights(self, j: int, rows) -> list[float]:
        """The weights of the pairs (i, j) for the given rows i, in order;
        0.0 for an absent one."""
        index, values = self._rows, self._values
        out = []
        for row in map(index.get, rows):
            k = None if row is None else row.get(j)
            out.append(0.0 if k is None else values[k])
        return out

    def entries(self):
        """(pair, weight, support count) for every stored pair, in slot order."""
        return zip(self._keys, self._values, self._counts)

    def sorted_rows(self):
        """(i, columns, weights, counts) for every stored row i, with the
        rows and each row's columns in ascending order."""
        values, counts = self._values, self._counts
        for i, row in sorted(self._rows.items()):
            columns = sorted(row)
            slots = list(map(row.__getitem__, columns))
            yield i, columns, list(map(values.__getitem__, slots)), list(map(counts.__getitem__, slots))

    def add(self, key: tuple[int, int], value: float) -> bool:
        """Store the weight of a pair not yet stored under the next slot,
        count 0, and return True; a pair stored already is left as it is
        and gives False."""
        i, j = key
        row = self._rows.setdefault(i, {})
        if j in row:
            return False
        row[j] = len(self._keys)
        self._keys.append(key)
        self._values.append(value)
        self._counts.append(0)
        if value > self._top:  # as max() keeps the first largest
            self._top = value
        return True

    def set_count(self, key, count: int) -> int:
        """Set the support count of a stored pair and return the count it
        had; KeyError for a pair not stored."""
        slot = self._slot(key)
        earlier = self._counts[slot]
        self._counts[slot] = count
        return earlier

    def scale(self, factor: float) -> None:
        """Multiply every stored weight by factor, which is >= 0."""
        self._values = [v * factor for v in self._values]
        self._top *= factor

    def reinforce(self, rows, scale: float, factor: float) -> None:
        """Multiply every stored weight by factor, then add scale * term to
        the weight of each pair (i, j) of each (i, columns, terms) row
        given, in order, and count one co-occurrence for each; every term
        is > 0.  A weight that would not be finite raises DomainError
        before anything changes, at a cost of O(pairs given)."""
        total = sum(chain.from_iterable([terms for _, _, terms in rows]), 0.0)
        top = self._top * factor + scale * total
        # No weight can exceed top but by rounding, which cannot double it:
        # below half the float range none overflows.  Else add up each pair.
        if not top < 2.0**1023:
            index, values = self._rows, self._values
            reached = {}  # slot, or a pair not yet stored -> its weight so far
            for i, columns, terms in rows:
                row = index.get(i) or {}
                for j, term in zip(columns, terms):
                    slot = row.get(j)
                    key = (i, j) if slot is None else slot
                    start = 0.0 if slot is None else values[slot] * factor
                    reached[key] = reached.get(key, start) + scale * term
            if not all(map(math.isfinite, reached.values())):
                raise DomainError("weight increment must be finite and keep every weight finite")
        if factor != 1.0:
            self.scale(factor)
        self._top = top
        index, keys, values, counts = self._rows, self._keys, self._values, self._counts
        for i, columns, terms in rows:
            row = index.get(i)
            if row is None:
                if not columns:
                    continue  # no empty row is stored
                row = index[i] = {}
            for j, term in zip(columns, terms):
                slot = row.get(j)
                if slot is None:
                    row[j] = len(values)
                    keys.append((i, j))
                    values.append(0.0 + scale * term)  # an absent weight reads as 0.0
                    counts.append(1)
                else:
                    values[slot] += scale * term
                    counts[slot] += 1


@dataclass(eq=True)
class GcaModel:
    """Sparse transition model plus macro library.

    Ids 0 .. atomic_count-1 are the domain's atomic operations; macro ids
    continue upward and are never reused, even after pruning.  Absent
    weights and support counts read as zero.  vocab_size is atomic_count
    plus the number of macros; add_macro is the one way to grow it.

    The valid transition relation is domain context, not learned state:
    mask_mode "all" admits every ordered pair of unpruned operations
    (self-pairs included) and "no_self" drops self-succession.  Loaders
    re-impose the mask from the domain, so it is neither serialized nor
    compared.
    """

    atomic_ops: list[str]
    params: GcaParams = field(default_factory=GcaParams)
    weights: PairTable = field(default_factory=PairTable)
    macros: list[MacroOperation] = field(default_factory=list)
    vocab_size: int = field(init=False)
    mask_mode: str = field(default="all", compare=False)

    # sampling_vocabulary's tuple.  It changes only with the vocabulary or
    # a pruned flag, so add_macro and prune_macros clear it.
    _vocabulary: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # Sampling rows, cleared by _touch on every weight change, on a new
    # weights, params or mask_mode, and with the vocabulary as well:
    # sample_successor's (ops, softmax_floor_sums) keyed on from_op,
    # and floored_distribution's rows keyed on (from_op, successor tuple).
    _row_cache: dict = field(default_factory=dict, compare=False, repr=False)
    # The op table: _flat[op] is the tuple of atomic ids op expands to.
    # Macros never change once made, so an entry never goes stale.
    _flat: list[tuple[int, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.params.validate()
        self._flat = [(op,) for op in range(len(self.atomic_ops))]
        for macro in self.macros:
            self._extend_table(macro)
        self.vocab_size = len(self._flat)

    def __setattr__(self, name, value):
        # weights is always a PairTable.  The sampling rows are derived from
        # weights, params and mask_mode, so a new value drops them (there
        # are none yet while __init__ runs).
        if name == "weights" and not isinstance(value, PairTable):
            value = PairTable(value)
        object.__setattr__(self, name, value)
        if name in ("weights", "params", "mask_mode") and "_row_cache" in self.__dict__:
            self._touch()

    # -- vocabulary ------------------------------------------------------

    @property
    def atomic_count(self) -> int:
        return len(self.atomic_ops)

    def is_pruned(self, op: int) -> bool:
        k = op - len(self.atomic_ops)
        return 0 <= k < len(self.macros) and self.macros[k].pruned

    def sampling_vocabulary(self) -> tuple[int, ...]:
        """All operation ids currently eligible for sampling, ascending;
        kept until the next vocabulary change."""
        ids = self._vocabulary
        if ids is None:
            ids = self._vocabulary = (
                *range(self.atomic_count), *(m.id for m in self.macros if not m.pruned)
            )
        return ids

    def valid_pair(self, i: int, j: int) -> bool:
        if self.mask_mode == "no_self" and i == j:
            return False
        return not self.is_pruned(i) and not self.is_pruned(j)

    def _pruned_ids(self) -> set[int]:
        return {m.id for m in self.macros if m.pruned}

    def _check_id(self, op: int) -> None:
        if not 0 <= op < self.vocab_size:
            raise DomainError(f"operation id {op} outside vocabulary of size {self.vocab_size}")

    def _extend_table(self, macro: MacroOperation) -> None:
        op = len(self._flat)
        if macro.id != op or not (0 <= macro.left < op and 0 <= macro.right < op):
            raise InternalError(
                f"macro {macro.id} = ({macro.left}, {macro.right}) needs id {op} and smaller constituents"
            )
        self._flat.append(self._flat[macro.left] + self._flat[macro.right])

    def _touch(self) -> None:
        self._row_cache.clear()

    def _vocabulary_changed(self) -> None:
        self._vocabulary = None
        self._touch()

    # -- sampling --------------------------------------------------------

    def _check_row(self, from_op: int, successors) -> None:
        if not successors:
            raise DomainError("no valid successors")
        self._check_id(from_op)
        n = self.vocab_size
        for s in successors:
            if not 0 <= s < n:
                self._check_id(s)  # raises DomainError

    def _logits(self, from_op: int, successors) -> list[float]:
        """The weights from from_op to the successors over the model
        temperature, in successor order; ids are not checked."""
        return self.weights.row_weights(from_op, successors, self.params.temperature)

    def transition_distribution(
        self, from_op: int, successors: list[int]
    ) -> list[tuple[int, float]]:
        """Softmax over successor weights at the model temperature.

        Output order matches the successor order; probabilities sum to 1.
        """
        self._check_row(from_op, successors)
        logits = self._logits(from_op, successors)
        m = max(logits)
        exps = [math.exp(x - m) for x in logits]
        z = add_up(exps)
        return [(s, e / z) for s, e in zip(successors, exps)]

    def floored_distribution(self, from_op: int, successors: list[int]) -> tuple[float, ...]:
        """The probabilities of the transition distribution mixed with the
        exploration floor, in successor order.

        Rows are remembered per (from_op, successors) until the next
        weight or vocabulary change, and returned as tuples so that no
        caller can change a remembered row.
        """
        key = (from_op, tuple(successors))
        row = self._row_cache.get(key)
        if row is None:
            ops = key[1]
            self._check_row(from_op, ops)
            probs = softmax_floor(self._logits(from_op, ops), self.params.exploration_floor)
            row = self._row_cache[key] = tuple(probs)
        return row

    def sample_successor(self, from_op: int, rng: random.Random) -> int:
        """Draw a successor from the floored transition distribution over
        every sampling-eligible op the transition mask admits after
        from_op.  The row, with its successor list, is kept until the
        next weight or vocabulary change.
        """
        row = self._row_cache.get(from_op)
        if row is None:
            self._check_id(from_op)
            # The sampling vocabulary holds no pruned op, so the mask drops
            # at most from_op itself.  A pruned or fully masked from_op may
            # go on to any eligible op.
            ops = self.sampling_vocabulary()
            if self.mask_mode == "no_self" and not self.is_pruned(from_op):
                ops = tuple(j for j in ops if j != from_op) or ops
            sums = softmax_floor_sums(self._logits(from_op, ops), self.params.exploration_floor)
            row = self._row_cache[from_op] = (ops, sums)
        ops, sums = row
        return ops[bisect_right(sums, rng.random())]  # inverse CDF

    # -- learning --------------------------------------------------------

    def hebbian_pair_update(
        self,
        counts_a: list[int],
        counts_b: list[int],
        fit_a: float,
        fit_b: float,
        fit_child: float,
    ) -> float:
        """Reinforce pairs co-active across two parents of an improving child.

        The gain is the child fitness minus the parent mean.  Every stored
        weight decays by (1 - decay) per call; on positive gain the pair
        (i, j) additionally receives learning_rate * gain *
        (counts_a[i]*counts_b[j] + counts_b[i]*counts_a[j]), restricted to
        the valid transition relation, and its support count increments.
        Returns the gain.  Count vectors of the wrong length or with a
        negative count, a gain that is not finite, or a positive gain whose
        increment learning_rate * gain, or a resulting weight, is not
        finite raise DomainError before anything changes.
        """
        n = self.vocab_size
        if len(counts_a) != n or len(counts_b) != n:
            raise DomainError(
                f"count vectors must have length {n}, got {len(counts_a)} and {len(counts_b)}"
            )
        if min(counts_a, default=0) < 0 or min(counts_b, default=0) < 0:
            raise DomainError("count vectors must not hold a negative count")
        gain = fit_child - 0.5 * (fit_a + fit_b)
        scale = self._increment_scale(gain)
        rows = self._pair_rows(counts_a, counts_b) if scale else []
        self.weights.reinforce(rows, scale, 1.0 - self.params.decay)
        self._touch()
        return gain

    def _increment_scale(self, gain: float) -> float:
        """learning_rate * gain for a positive gain, 0.0 for any other
        finite one.  A gain or positive increment that is not finite
        raises DomainError."""
        if not math.isfinite(gain):
            raise DomainError(f"fitness gain must be finite, got {gain}")
        if gain <= 0:
            return 0.0
        scale = self.params.learning_rate * gain
        if not math.isfinite(scale):
            raise DomainError(f"weight increment must be finite, got {scale}")
        return scale

    def _pair_rows(self, counts_a: list[int], counts_b: list[int]) -> list:
        """(i, columns, terms) for each row i of the pairs (i, j) with a
        positive term that the transition relation admits, as the pair
        update reinforces them; no row is empty.  The counts are not
        negative, so every term of two nonzero counts is positive."""
        pruned = self._pruned_ids()
        nz_a = [i for i, c in enumerate(counts_a) if c and i not in pruned]
        nz_b = [i for i, c in enumerate(counts_b) if c and i not in pruned]
        # The pair terms in the order the two outer products first meet
        # them: a's ops against b's, then b's against a's for the pairs
        # the first one did not reach.  Those are a whole row outside a's
        # ops, and the columns outside b's ops in a row inside them, so
        # no self-pair is among them.
        a, b = counts_a, counts_b
        in_a, in_b = set(nz_a), set(nz_b)
        only_a = [j for j in nz_a if j not in in_b]
        no_self = self.mask_mode == "no_self"
        rows = []
        for i in nz_a:
            columns = [j for j in nz_b if j != i] if no_self and i in in_b else nz_b
            if columns:
                ai, bi = a[i], b[i]
                rows.append((i, columns, [ai * b[j] + bi * a[j] for j in columns]))
        for i in nz_b:
            columns = only_a if i in in_a else nz_a
            if columns:
                bi = b[i]
                rows.append((i, columns, [bi * a[j] for j in columns]))
        return rows

    def hebbian_trajectory_update(self, ops: list[int], gain: float) -> None:
        """Single-trajectory reinforcement: strengthen each adjacent pair.

        Used by explorers without recombination; gain is the improvement
        over the trajectory owner's previous best.  Decay applies per call
        regardless; pairs are only strengthened on positive gain.  An id
        outside the vocabulary, a gain that is not finite, or a positive
        gain whose increment learning_rate * gain, or a resulting weight,
        is not finite raises DomainError before anything changes.
        """
        n = self.vocab_size
        for op in ops:
            if not 0 <= op < n:
                self._check_id(op)  # raises DomainError
        scale = self._increment_scale(gain)
        rows = []
        if scale:
            pruned = self._pruned_ids()
            no_self = self.mask_mode == "no_self"
            # Adjacent pairs in order, a term of 1 each; a pair that shares
            # its row with the pair before it joins that row (a run of one
            # op), so the writes keep their order with fewer rows.
            last = None
            for i, j in zip(ops, ops[1:]):
                if i in pruned or j in pruned or (no_self and i == j):
                    continue
                if i == last:
                    columns.append(j)
                    terms.append(1)
                else:
                    columns, terms, last = [j], [1], i
                    rows.append((i, columns, terms))
        self.weights.reinforce(rows, scale, 1.0 - self.params.decay)
        self._touch()

    # -- abstraction -----------------------------------------------------

    def _mean(self, op: int, into: bool) -> float | None:
        """Mean weight over the valid pairs (k, op) if into, else (op, k),
        absent entries counted as zero; None when none is valid.  Summed
        by add_up in ascending k."""
        pruned = self._pruned_ids()
        if op in pruned:
            return None
        # A pair is valid read either way round, so one list of partners
        # serves the row and the column.
        no_self = self.mask_mode == "no_self"
        ks = [k for k in range(self.vocab_size) if k not in pruned and not (no_self and k == op)]
        if not ks:
            return None
        w = self.weights
        return add_up(w.column_weights(op, ks) if into else w.row_weights(op, ks)) / len(ks)

    def compute_lift(self, i: int, j: int) -> float:
        """Pair weight relative to the product of its marginal mean weights.

        Marginal means run over the valid transition relation with absent
        entries counted as zero.  A zero (or empty) marginal yields +inf
        when the pair itself has weight, else 0.
        """
        self._check_id(i)
        self._check_id(j)
        w_ij = self.weights.get((i, j), 0.0)
        denom = (self._mean(i, into=True) or 0.0) * (self._mean(j, into=False) or 0.0)
        if denom == 0.0:
            return math.inf if w_ij > 0 else 0.0
        return w_ij / denom

    def scan_and_abstract(
        self, generation: int, k_max_new: int = DEFAULT_MAX_NEW_MACROS
    ) -> list[MacroOperation]:
        """Promote the strongest qualifying pairs into macros.

        Qualification is judged against the model state at scan entry;
        candidates are processed in descending weight order with (i, j)
        lexicographic tie-breaks, capped at k_max_new per scan.  A
        negative cap raises DomainError.
        """
        if k_max_new < 0:
            raise DomainError(f"k_max_new must be >= 0, got {k_max_new}")
        params = self.params
        weight_min, support_min = params.weight_min, params.support_min
        # The pairs that clear the weight and support gates, in promotion
        # order; the other gates are judged only until the cap is reached.
        gated = sorted(
            (-w, i, j)
            for (i, j), w, count in self.weights.entries()
            if w > weight_min and count >= support_min
        )
        promoted = {(m.left, m.right) for m in self.macros if not m.pruned}
        chosen = []
        for _, i, j in gated:
            if len(chosen) >= k_max_new:
                break
            if (
                self.valid_pair(i, j)
                and (i, j) not in promoted
                and self.compute_lift(i, j) >= params.lift_min
            ):
                chosen.append((i, j))
        return [self.add_macro(i, j, generation) for i, j in chosen]

    def add_macro(self, left: int, right: int, generation: int = 0) -> MacroOperation:
        """Append a macro over two existing ops under the next id and grow
        the vocabulary by one.  The new row and column are seeded from the
        constituents' averages; pre-existing entries are untouched, the
        macro's self-transition stays zero and its support starts empty."""
        m = self.vocab_size
        if not (0 <= left < m and 0 <= right < m):
            raise DomainError("macro constituents must already exist in the vocabulary")
        w = self.weights
        ops = range(m)
        left_out, right_out = w.row_weights(left, ops), w.row_weights(right, ops)
        left_in, right_in = w.column_weights(left, ops), w.column_weights(right, ops)
        # Row and column m are new: every entry is added, (m, k) before
        # (k, m) in ascending k.
        for k in ops:
            out = 0.5 * (left_out[k] + right_out[k])
            if out != 0.0:
                w.add((m, k), out)
            into = 0.5 * (left_in[k] + right_in[k])
            if into != 0.0:
                w.add((k, m), into)
        macro = MacroOperation(id=m, left=left, right=right, created_at_generation=generation)
        self._extend_table(macro)
        self.macros.append(macro)
        self.vocab_size = m + 1
        self._vocabulary_changed()
        return macro

    def prune_macros(self, u_min: int = DEFAULT_PRUNE_MIN_USES) -> list[int]:
        """Retire macros whose success rate fell below the effectiveness
        floor, once they have been used at least u_min times (and at least
        once: an unused macro has no success rate)."""
        theta = self.params.effectiveness_min
        pruned = []
        for m in self.macros:
            if m.pruned or m.uses < u_min or m.uses == 0:
                continue
            if m.successful_uses / m.uses < theta:
                m.pruned = True
                pruned.append(m.id)
        if pruned:
            self._vocabulary_changed()
        return pruned

    def flatten_macro(self, op: int) -> list[int]:
        """An operation's atomic sequence (itself for an atom), as a fresh list."""
        self._check_id(op)
        return list(self._flat[op])

    def flatten_sequence(self, ops: list[int]) -> list[int]:
        """The atomic sequences of the given operations, concatenated."""
        flat = self._flat
        try:
            # An unsigned array takes only ints >= 0, so an id that is
            # negative or not an int raises here, and one past the table
            # in the walk: no per-op check.
            array("Q", ops)
            out: list[int] = []
            for op in ops:
                out.extend(flat[op])
            return out
        except (OverflowError, TypeError, IndexError):
            pass
        # Some id is not in the vocabulary: raise as flatten_macro does.
        return [x for op in ops for x in self.flatten_macro(op)]


# -- serialization --------------------------------------------------------


def serialize_model(model: GcaModel) -> str:
    """Render a model as JSON text.  Float fields are written as floats in
    Python's shortest round-trip representation, so loading restores them
    exactly and a reloaded model serializes to the same text."""
    doc = {
        "version": FORMAT_VERSION,
        "atomic_ops": list(model.atomic_ops),
        "vocab_size": model.vocab_size,
        **_param_entries(model.params, _TOP_PARAMS),
        "thresholds": _param_entries(model.params, _THRESHOLDS),
    }
    tail = {"macros": [dataclasses.asdict(m) for m in model.macros]}
    # The weight and support tables are most of the text, so they are
    # written here, laid out as json.dumps(doc, indent=2) lays out a list
    # of triples one level down, row by row in ascending (i, j) with one
    # text prefix per row; the rest goes through json.dumps, and the two
    # documents are joined at their outer braces.  Each row becomes one
    # string, and the rows are joined once, into the result.
    weights, support = [], []
    for i, cols, row_weights, row_counts in model.weights.sorted_rows():
        prefix = f"    [\n      {i},\n      "
        floats = list(map(float, row_weights))
        text = repr if all(map(math.isfinite, floats)) else _float_text
        weights.append(",\n".join(
            f"{prefix}{j},\n      {v}\n    ]" for j, v in zip(cols, map(text, floats))
        ))
        counted = ",\n".join(f"{prefix}{j},\n      {c}\n    ]" for j, c in zip(cols, row_counts) if c)
        if counted:
            support.append(counted)
    head = json.dumps(doc, indent=2)[: -len("\n}")]
    rest = json.dumps(tail, indent=2)[len("{"):]
    return "".join([
        head, ',\n  "weights": ', *_json_list(weights),
        ',\n  "support": ', *_json_list(support), ",", rest,
    ])


def _param_entries(params: GcaParams, schema: dict) -> dict:
    """Model-file key -> value of the hyperparameters a schema lists, a
    float field written as a float."""
    return {
        key: float(getattr(params, name)) if hint == "float" else getattr(params, name)
        for key, (name, hint) in schema.items()
    }


def _float_text(x: float) -> str:
    """A float as the json module writes it."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _json_list(rows: list[str]) -> list[str]:
    """The pieces of a list under a top-level key as json.dumps(indent=2)
    writes it, given its entries already laid out and joined row by row;
    joining the pieces copies each row once."""
    if not rows:
        return ["[]"]
    pieces = ["[\n"] + [",\n"] * (2 * len(rows) - 1) + ["\n  ]"]
    pieces[1::2] = rows
    return pieces


def _finite_number(text: str) -> float | int:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return int(text) if text.lstrip("-").isdigit() else value


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its key-value pairs; ValueError naming a key
    that the object gives twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} given twice in one object")
        doc[key] = value
    return doc


def finite_json(text: str):
    """Parse JSON text whose numbers are all finite and whose objects give
    each key once: NaN, Infinity, -Infinity, number literals that overflow
    a float and a repeated key raise ValueError."""
    number = _finite_number  # integer literals stay ints
    return json.loads(
        text, parse_float=number, parse_int=number, parse_constant=number,
        object_pairs_hook=_unique_keys,
    )


# The model document as ace.errors.read_fields reads it, key -> (field
# name, annotation): its top level, its "thresholds" and a macro entry.
# The first four hyperparameters sit at the top level, the promotion
# gates under "thresholds".
_HINTS = {f.name: f.type for f in dataclasses.fields(GcaParams)}
_TOP_PARAMS, _THRESHOLDS = (
    {key: (name, _HINTS[name]) for _, key, name in rows}
    for rows in (HYPERPARAMETERS[:4], HYPERPARAMETERS[4:])
)
_MODEL = {key: (key, hint) for key, hint in (
    ("version", "int"), ("atomic_ops", "list"), ("vocab_size", "int"), ("thresholds", "dict"),
    ("weights", "list"), ("support", "list"), ("macros", "list"),
)}
_MODEL.update(_TOP_PARAMS)
_MACRO = {f.name: (f.name, f.type) for f in dataclasses.fields(MacroOperation)}
# Every macro field is required but "pruned", whose absence means active.
_MACRO_REQUIRED = [name for name in _MACRO if name != "pruned"]


def deserialize_model(text: str) -> GcaModel:
    """Parse and validate a serialized model; raises ParseError with the
    offending field on any malformed, unknown or invariant-breaking
    content."""
    try:
        doc = finite_json(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"model document is not valid JSON: {e}") from e
    except ValueError as e:
        raise ParseError(f"model document: {e}") from e
    ctx = "model"
    values = read_fields(doc, _MODEL, ctx, ParseError, required=_MODEL)
    version, atomic_ops = values.pop("version"), values.pop("atomic_ops")
    if version != FORMAT_VERSION:
        raise ParseError(f"{ctx}: unsupported format version {version}")
    if not atomic_ops or not all(isinstance(s, str) for s in atomic_ops):
        raise ParseError(f"{ctx}: atomic_ops must be a non-empty list of names")
    vocab_size = values.pop("vocab_size")
    weights, support, macro_docs = values.pop("weights"), values.pop("support"), values.pop("macros")
    values.update(read_fields(
        values.pop("thresholds"), _THRESHOLDS, "thresholds", ParseError, required=_THRESHOLDS))
    params = GcaParams(**values)
    try:
        params.validate()
    except ConfigError as e:
        raise ParseError(f"{ctx}: {e}") from e

    macros = []
    for idx, m_doc in enumerate(macro_docs):
        mc = f"macros[{idx}]"
        m = MacroOperation(**read_fields(m_doc, _MACRO, mc, ParseError, required=_MACRO_REQUIRED))
        if m.id != len(atomic_ops) + idx:
            raise ParseError(f"{mc}: macro ids must be consecutive from atomic_count")
        if m.left >= m.id or m.right >= m.id or m.left < 0 or m.right < 0:
            raise ParseError(f"{mc}: constituents must have smaller ids than the macro")
        if m.uses < 0 or m.successful_uses < 0 or m.successful_uses > m.uses:
            raise ParseError(f"{mc}: inconsistent use counters")
        macros.append(m)
    if vocab_size != len(atomic_ops) + len(macros):
        raise ParseError(f"{ctx}: vocab_size does not match atomic_ops + macros")
    # Each triple goes straight into the table, in file order, and the
    # table catches a pair given twice.
    table = PairTable()
    for at, (i, j), w in read_triples(weights, "float", "weight", "weights", ParseError):
        if not (0 <= i < vocab_size and 0 <= j < vocab_size):
            raise ParseError(f"{at}: id outside vocabulary of size {vocab_size}")
        if w < 0:
            raise ParseError(f"{at}: negative weight {w}")
        if not table.add((i, j), w):
            raise ParseError(f"{at}: duplicate entry {(i, j)}")
    for at, pair, count in read_triples(support, "int", "count", "support", ParseError):
        try:
            earlier = table.set_count(pair, count)
        except KeyError:
            raise ParseError(f"{at}: support for {pair}, which has no weight entry") from None
        if count < 1:
            raise ParseError(f"{at}: support count must be >= 1, got {count}")
        if earlier:
            raise ParseError(f"{at}: duplicate entry {pair}")
    return GcaModel(atomic_ops=list(atomic_ops), params=params, weights=table, macros=macros)


def save_model(model: GcaModel, path) -> None:
    """Write exactly serialize_model(model) to path, so that the file
    re-serializes to its own bytes; ConfigError naming a path that cannot
    be opened."""
    text = serialize_model(model)
    try:
        f = open(path, "w", newline="", encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot write model file {path}: {e}") from e
    with f:
        f.write(text)


def load_model(path) -> GcaModel:
    """The model in the file at path; ConfigError when the file cannot be
    read, ParseError naming it when it holds no valid model."""
    return read_file(path, "model file", deserialize_model)
