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

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import ConfigError, DomainError, InternalError, ParseError

FORMAT_VERSION = 1

# Pair promotion defaults: minimum uses before a macro may be pruned, and
# the cap on promotions per scan.
DEFAULT_PRUNE_MIN_USES = 5
DEFAULT_MAX_NEW_MACROS = 3


@dataclass
class GcaThresholds:
    """Gates for promoting an operation pair into a macro and for
    retiring macros that stopped earning their keep."""

    weight_min: float = 0.3     # pair weight must strictly exceed this
    support_min: int = 3        # minimum co-occurrence count
    lift_min: float = 1.4       # pair weight vs product of marginal means
    effectiveness_min: float = 0.1  # usage-weighted success rate floor


@dataclass
class GcaParams:
    """Hyperparameters of the transition model.

    temperature and exploration_floor shape sampling; learning_rate and
    decay shape the reinforcement update. learning_rate may be zero to
    neutralize guidance entirely (useful for ablation arms).
    """

    temperature: float = 1.0
    exploration_floor: float = 0.1
    learning_rate: float = 0.15
    decay: float = 0.2
    thresholds: GcaThresholds = field(default_factory=GcaThresholds)

    def validate(self) -> None:
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if not 0.0 < self.exploration_floor < 1.0:
            raise ConfigError(
                f"exploration_floor must lie in (0, 1), got {self.exploration_floor}"
            )
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.decay <= 1.0:
            raise ConfigError(f"decay must lie in [0, 1], got {self.decay}")


@dataclass
class MacroOperation:
    """A composite operation built from two existing vocabulary items.

    Constituents always carry strictly smaller ids than the macro itself,
    which makes flattening terminate by construction.  Pruned macros keep
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
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"exploration floor must lie in (0, 1), got {epsilon}")
    k = len(probs)
    floor = epsilon / k
    keep = 1.0 - epsilon
    return [(op, keep * p + floor) for op, p in probs]


def draw(cum: list[float], rng: random.Random) -> int:
    """Inverse-CDF draw: the index of the first cumulative probability
    above a uniform variate (the last index if rounding leaves none)."""
    return min(bisect_right(cum, rng.random()), len(cum) - 1)


@dataclass(eq=True)
class GcaModel:
    """Sparse transition model plus macro library.

    Ids 0 .. atomic_count-1 are the domain's atomic operations; macro ids
    continue upward and are never reused, even after pruning.  Absent
    weight/support entries read as zero.  vocab_size is atomic_count plus
    the number of macros; add_macro is the one way to grow it.

    The valid transition relation is domain context, not learned state:
    mask_mode "all" admits every ordered pair of unpruned operations
    (self-pairs included) and "no_self" drops self-succession.  Loaders
    re-impose the mask from the domain, so it is neither serialized nor
    compared.
    """

    atomic_ops: list[str]
    params: GcaParams = field(default_factory=GcaParams)
    weights: dict[tuple[int, int], float] = field(default_factory=dict)
    support: dict[tuple[int, int], int] = field(default_factory=dict)
    macros: list[MacroOperation] = field(default_factory=list)
    vocab_size: int = field(init=False)
    mask_mode: str = field(default="all", compare=False)

    # Sampling rows, cleared by _touch: sample_successor's (ops, cumulative
    # probabilities) keyed on from_op, and floored_distribution's rows
    # keyed on (from_op, successor tuple).
    _row_cache: dict = field(default_factory=dict, compare=False, repr=False)
    _flat_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.vocab_size = len(self.atomic_ops) + len(self.macros)
        self.params.validate()

    # -- vocabulary ------------------------------------------------------

    @property
    def atomic_count(self) -> int:
        return len(self.atomic_ops)

    def macro_by_id(self, op: int) -> MacroOperation | None:
        k = op - self.atomic_count
        if 0 <= k < len(self.macros):
            return self.macros[k]
        return None

    def is_pruned(self, op: int) -> bool:
        m = self.macro_by_id(op)
        return m.pruned if m is not None else False

    def unpruned_macros(self) -> list[MacroOperation]:
        return [m for m in self.macros if not m.pruned]

    def sampling_vocabulary(self) -> list[int]:
        """All operation ids currently eligible for sampling, ascending."""
        ids = list(range(self.atomic_count))
        ids.extend(m.id for m in self.macros if not m.pruned)
        return ids

    def valid_pair(self, i: int, j: int) -> bool:
        if self.mask_mode == "no_self" and i == j:
            return False
        return not self.is_pruned(i) and not self.is_pruned(j)

    def _check_id(self, op: int) -> None:
        if not 0 <= op < self.vocab_size:
            raise DomainError(f"operation id {op} outside vocabulary of size {self.vocab_size}")

    def _touch(self) -> None:
        if self._row_cache:
            self._row_cache.clear()

    # -- sampling --------------------------------------------------------

    def transition_distribution(
        self, from_op: int, successors: list[int]
    ) -> list[tuple[int, float]]:
        """Softmax over successor weights at the model temperature.

        Output order matches the successor order; probabilities sum to 1.
        """
        if not successors:
            raise DomainError("no valid successors")
        self._check_id(from_op)
        w = self.weights
        t = self.params.temperature
        logits = []
        for s in successors:
            self._check_id(s)
            logits.append(w.get((from_op, s), 0.0) / t)
        m = max(logits)
        exps = [math.exp(x - m) for x in logits]
        z = sum(exps)
        return [(s, e / z) for s, e in zip(successors, exps)]

    def floored_distribution(
        self, from_op: int, successors: list[int]
    ) -> tuple[tuple[int, float], ...]:
        """The transition distribution mixed with the exploration floor.

        Rows are remembered per (from_op, successors) until the next
        weight or vocabulary change, and returned as tuples so that no
        caller can change a remembered row.
        """
        key = (from_op, tuple(successors))
        row = self._row_cache.get(key)
        if row is None:
            row = tuple(
                apply_exploration_floor(
                    self.transition_distribution(from_op, key[1]),
                    self.params.exploration_floor,
                )
            )
            self._row_cache[key] = row
        return row

    def sample_successor(self, from_op: int, rng: random.Random) -> int:
        """Draw a successor from the floored transition distribution over
        every sampling-eligible op the transition mask admits after
        from_op.  The row is cached per from-op until the next weight or
        vocabulary change.
        """
        row = self._row_cache.get(from_op)
        if row is None:
            vocab = [j for j in self.sampling_vocabulary() if self.valid_pair(from_op, j)]
            if not vocab:
                # from_op may itself be pruned or fully masked; any
                # eligible op is then a legal continuation.
                vocab = self.sampling_vocabulary()
            dist = self.floored_distribution(from_op, vocab)
            row = (vocab, list(accumulate(p for _, p in dist)))
            self._row_cache[from_op] = row
        ops, cum = row
        return ops[draw(cum, rng)]

    # -- learning --------------------------------------------------------

    def _decay_weights(self) -> None:
        d = self.params.decay
        if d == 0.0:
            return
        f = 1.0 - d
        w = self.weights
        for k in w:
            w[k] *= f

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
        Returns the gain.
        """
        n = self.vocab_size
        if len(counts_a) != n or len(counts_b) != n:
            raise DomainError(
                f"count vectors must have length {n}, got {len(counts_a)} and {len(counts_b)}"
            )
        gain = fit_child - 0.5 * (fit_a + fit_b)
        self._decay_weights()
        self._touch()
        if gain <= 0:
            return gain
        nz_a = [(i, c) for i, c in enumerate(counts_a) if c]
        nz_b = [(i, c) for i, c in enumerate(counts_b) if c]
        inc: dict[tuple[int, int], float] = {}
        for i, ca in nz_a:
            for j, cb in nz_b:
                key = (i, j)
                inc[key] = inc.get(key, 0.0) + ca * cb
        for i, cb in nz_b:
            for j, ca in nz_a:
                key = (i, j)
                inc[key] = inc.get(key, 0.0) + cb * ca
        scale = self.params.learning_rate * gain
        if scale == 0.0:
            return gain
        w = self.weights
        s = self.support
        for key, term in inc.items():
            if term <= 0 or not self.valid_pair(*key):
                continue
            w[key] = w.get(key, 0.0) + scale * term
            s[key] = s.get(key, 0) + 1
        return gain

    def hebbian_trajectory_update(self, ops: list[int], gain: float) -> None:
        """Single-trajectory reinforcement: strengthen each adjacent pair.

        Used by explorers without recombination; gain is the improvement
        over the trajectory owner's previous best.  Decay applies per call
        regardless; pairs are only strengthened on positive gain.
        """
        self._decay_weights()
        self._touch()
        if gain <= 0 or len(ops) < 2:
            return
        scale = self.params.learning_rate * gain
        if scale == 0.0:
            return
        w = self.weights
        s = self.support
        for t in range(len(ops) - 1):
            key = (ops[t], ops[t + 1])
            if not self.valid_pair(*key):
                continue
            w[key] = w.get(key, 0.0) + scale
            s[key] = s.get(key, 0) + 1

    # -- abstraction -----------------------------------------------------

    def _mean_weight(self, pairs) -> float | None:
        """Mean weight over the valid pairs among those given, absent
        entries counted as zero; None when none is valid.  Summed left to
        right, so the result does not depend on the Python version."""
        w = self.weights
        total = 0.0
        count = 0
        for i, j in pairs:
            if self.valid_pair(i, j):
                total += w.get((i, j), 0.0)
                count += 1
        return total / count if count else None

    def compute_lift(self, i: int, j: int) -> float:
        """Pair weight relative to the product of its marginal mean weights.

        Marginal means run over the valid transition relation with absent
        entries counted as zero.  A zero (or empty) marginal yields +inf
        when the pair itself has weight, else 0.
        """
        self._check_id(i)
        self._check_id(j)
        w_ij = self.weights.get((i, j), 0.0)
        ks = range(self.vocab_size)
        col = self._mean_weight((k, i) for k in ks)
        row = self._mean_weight((j, k) for k in ks)
        denom = (col or 0.0) * (row or 0.0)
        if denom == 0.0:
            return math.inf if w_ij > 0 else 0.0
        return w_ij / denom

    def macro_for_pair(self, i: int, j: int) -> MacroOperation | None:
        for m in self.macros:
            if not m.pruned and m.left == i and m.right == j:
                return m
        return None

    def pair_qualifies(self, i: int, j: int) -> bool:
        """True when (i, j) clears every promotion gate right now."""
        t = self.params.thresholds
        return (
            self.weights.get((i, j), 0.0) > t.weight_min
            and self.support.get((i, j), 0) >= t.support_min
            and self.valid_pair(i, j)
            and self.macro_for_pair(i, j) is None
            and self.compute_lift(i, j) >= t.lift_min
        )

    def scan_and_abstract(
        self, generation: int, k_max_new: int = DEFAULT_MAX_NEW_MACROS
    ) -> list[MacroOperation]:
        """Promote the strongest qualifying pairs into macros.

        Qualification is judged against the model state at scan entry;
        candidates are processed in descending weight order with (i, j)
        lexicographic tie-breaks, capped at k_max_new per scan.
        """
        cands = []
        for (i, j), w in self.weights.items():
            if self.pair_qualifies(i, j):
                cands.append((-w, i, j))
        cands.sort()
        return [self.add_macro(i, j, generation) for _, i, j in cands[:k_max_new]]

    def add_macro(self, left: int, right: int, generation: int = 0) -> MacroOperation:
        """Append a macro over two existing ops under the next id and grow
        the vocabulary by one.  The new row and column are seeded from the
        constituents' averages; pre-existing entries are untouched, the
        macro's self-transition stays zero and its support starts empty."""
        m = self.vocab_size
        if not (0 <= left < m and 0 <= right < m):
            raise DomainError("macro constituents must already exist in the vocabulary")
        w = self.weights
        for k in range(m):
            out = 0.5 * (w.get((left, k), 0.0) + w.get((right, k), 0.0))
            if out != 0.0:
                w[(m, k)] = out
            into = 0.5 * (w.get((k, left), 0.0) + w.get((k, right), 0.0))
            if into != 0.0:
                w[(k, m)] = into
        macro = MacroOperation(id=m, left=left, right=right, created_at_generation=generation)
        self.macros.append(macro)
        self.vocab_size = m + 1
        self._touch()
        return macro

    def prune_macros(self, u_min: int = DEFAULT_PRUNE_MIN_USES) -> list[int]:
        """Retire macros whose success rate fell below the effectiveness
        floor, once they have been used at least u_min times (and at least
        once: an unused macro has no success rate)."""
        theta = self.params.thresholds.effectiveness_min
        pruned = []
        for m in self.macros:
            if m.pruned or m.uses < u_min or m.uses == 0:
                continue
            if m.successful_uses / m.uses < theta:
                m.pruned = True
                pruned.append(m.id)
        if pruned:
            self._touch()
        return pruned

    def flatten_macro(self, op: int) -> list[int]:
        """Expand an operation to its atomic sequence (identity for atoms)."""
        self._check_id(op)
        cached = self._flat_cache.get(op)
        if cached is not None:
            return list(cached)
        macro = self.macro_by_id(op)
        if macro is None:
            return [op]
        if macro.left >= op or macro.right >= op:
            raise InternalError(
                f"macro {op} references constituent with id >= its own; flattening would not terminate"
            )
        flat = self.flatten_macro(macro.left) + self.flatten_macro(macro.right)
        self._flat_cache[op] = tuple(flat)
        return flat

    def flatten_sequence(self, ops: list[int]) -> list[int]:
        out: list[int] = []
        for op in ops:
            out.extend(self.flatten_macro(op))
        return out


def fresh_model(atomic_ops: list[str], params: GcaParams | None = None) -> GcaModel:
    """A zero-weight model over the given atomic vocabulary."""
    return GcaModel(atomic_ops=list(atomic_ops), params=params or GcaParams())


# -- serialization --------------------------------------------------------


def serialize_model(model: GcaModel) -> str:
    """Render a model as JSON text.  Float fields are written as floats in
    Python's shortest round-trip representation, so loading restores them
    exactly and a reloaded model serializes to the same text."""
    p = model.params
    t = p.thresholds
    doc = {
        "version": FORMAT_VERSION,
        "atomic_ops": list(model.atomic_ops),
        "vocab_size": model.vocab_size,
        "tau": float(p.temperature),
        "epsilon": float(p.exploration_floor),
        "lambda": float(p.learning_rate),
        "gamma": float(p.decay),
        "thresholds": {
            "w": float(t.weight_min),
            "s": t.support_min,
            "l": float(t.lift_min),
            "eff": float(t.effectiveness_min),
        },
        "weights": [[i, j, float(w)] for (i, j), w in sorted(model.weights.items())],
        "support": [[i, j, c] for (i, j), c in sorted(model.support.items())],
        "macros": [
            {
                "id": m.id,
                "left": m.left,
                "right": m.right,
                "uses": m.uses,
                "successful_uses": m.successful_uses,
                "created_at_generation": m.created_at_generation,
                "pruned": m.pruned,
            }
            for m in model.macros
        ],
    }
    return json.dumps(doc, indent=2)


def _parse_field(doc: dict, key: str, kind, ctx: str):
    if key not in doc:
        raise ParseError(f"{ctx}: missing field '{key}'")
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ParseError(f"{ctx}: field '{key}' has wrong type {type(val).__name__}")
    return val


def deserialize_model(text: str) -> GcaModel:
    """Parse and validate a serialized model; raises ParseError with the
    offending field on any malformed or invariant-breaking content."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"model document is not valid JSON: line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    ctx = "model"
    version = _parse_field(doc, "version", int, ctx)
    if version != FORMAT_VERSION:
        raise ParseError(f"{ctx}: unsupported format version {version}")
    atomic_ops = _parse_field(doc, "atomic_ops", list, ctx)
    if not atomic_ops or not all(isinstance(s, str) for s in atomic_ops):
        raise ParseError(f"{ctx}: atomic_ops must be a non-empty list of names")
    vocab_size = _parse_field(doc, "vocab_size", int, ctx)
    th_doc = _parse_field(doc, "thresholds", dict, ctx)
    params = GcaParams(
        temperature=_parse_field(doc, "tau", float, ctx),
        exploration_floor=_parse_field(doc, "epsilon", float, ctx),
        learning_rate=_parse_field(doc, "lambda", float, ctx),
        decay=_parse_field(doc, "gamma", float, ctx),
        thresholds=GcaThresholds(
            weight_min=_parse_field(th_doc, "w", float, "thresholds"),
            support_min=_parse_field(th_doc, "s", int, "thresholds"),
            lift_min=_parse_field(th_doc, "l", float, "thresholds"),
            effectiveness_min=_parse_field(th_doc, "eff", float, "thresholds"),
        ),
    )
    try:
        params.validate()
    except ConfigError as e:
        raise ParseError(f"{ctx}: {e}") from e

    macros = []
    for idx, m_doc in enumerate(_parse_field(doc, "macros", list, ctx)):
        mc = f"macros[{idx}]"
        if not isinstance(m_doc, dict):
            raise ParseError(f"{mc}: must be an object")
        m = MacroOperation(
            id=_parse_field(m_doc, "id", int, mc),
            left=_parse_field(m_doc, "left", int, mc),
            right=_parse_field(m_doc, "right", int, mc),
            uses=_parse_field(m_doc, "uses", int, mc),
            successful_uses=_parse_field(m_doc, "successful_uses", int, mc),
            created_at_generation=_parse_field(m_doc, "created_at_generation", int, mc),
            pruned=m_doc.get("pruned", False),
        )
        if not isinstance(m.pruned, bool):
            raise ParseError(f"{mc}: field 'pruned' must be a boolean")
        if m.id != len(atomic_ops) + idx:
            raise ParseError(f"{mc}: macro ids must be consecutive from atomic_count")
        if m.left >= m.id or m.right >= m.id or m.left < 0 or m.right < 0:
            raise ParseError(f"{mc}: constituents must have smaller ids than the macro")
        if m.uses < 0 or m.successful_uses < 0 or m.successful_uses > m.uses:
            raise ParseError(f"{mc}: inconsistent use counters")
        macros.append(m)
    if vocab_size != len(atomic_ops) + len(macros):
        raise ParseError(f"{ctx}: vocab_size does not match atomic_ops + macros")

    weights: dict[tuple[int, int], float] = {}
    for idx, entry in enumerate(_parse_field(doc, "weights", list, ctx)):
        wc = f"weights[{idx}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"{wc}: expected [from, to, value]")
        i, j, w = entry
        if not isinstance(i, int) or not isinstance(j, int):
            raise ParseError(f"{wc}: ids must be integers")
        if not (0 <= i < vocab_size and 0 <= j < vocab_size):
            raise ParseError(f"{wc}: id outside vocabulary of size {vocab_size}")
        if isinstance(w, int) and not isinstance(w, bool):
            w = float(w)
        if not isinstance(w, float):
            raise ParseError(f"{wc}: weight must be a number")
        if w < 0:
            raise ParseError(f"{wc}: negative weight {w}")
        if (i, j) in weights:
            raise ParseError(f"{wc}: duplicate entry ({i}, {j})")
        weights[(i, j)] = w

    support: dict[tuple[int, int], int] = {}
    for idx, entry in enumerate(_parse_field(doc, "support", list, ctx)):
        sc = f"support[{idx}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"{sc}: expected [from, to, count]")
        i, j, c = entry
        if not isinstance(i, int) or not isinstance(j, int) or not isinstance(c, int):
            raise ParseError(f"{sc}: entries must be integers")
        if not (0 <= i < vocab_size and 0 <= j < vocab_size):
            raise ParseError(f"{sc}: id outside vocabulary of size {vocab_size}")
        if c < 0:
            raise ParseError(f"{sc}: negative count {c}")
        if (i, j) in support:
            raise ParseError(f"{sc}: duplicate entry ({i}, {j})")
        support[(i, j)] = c

    return GcaModel(
        atomic_ops=list(atomic_ops),
        params=params,
        weights=weights,
        support=support,
        macros=macros,
    )


def save_model(model: GcaModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_model(model))
        f.write("\n")


def load_model(path) -> GcaModel:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read model file {path}: {e}") from e
    return deserialize_model(text)
