"""Synthetic token-chain domain with an exactly solvable optimum.

Fitness rewards planted adjacent token pairs and charges a small penalty
for every other adjacency, so the best achievable sequence (and its
value) follows from dynamic programming over (position, last token).
That makes this domain the ground-truth testbed: planted pairs are the
patterns the guidance model is supposed to learn and promote to macros.

chain_fitness is the reference scorer.  ChainDomain scores by walking a
table of reward rows, built once: one row of -noise_penalty shared by
every token that starts no planted pair, and one dense row per token
that starts one.  The table is built only when it has no more rows than
the solver's suffix table, one per position (planted first tokens + 1 <=
sequence_length), so it never outgrows what the domain already holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, check_range
from .loop import Trajectory

# Position-by-token states capped to keep the solver interactive.
MAX_DP_STATES = 100_000_000
# A run succeeds within (1 - SUCCESS_FRACTION) * |optimum| of the optimum.
SUCCESS_FRACTION = 0.95


def default_rewards() -> dict[tuple[int, int], float]:
    return {(0, 1): 5.0, (2, 3): 3.0}


@dataclass
class ChainSpec:
    alphabet_size: int = 6
    sequence_length: int = 12
    rewards: dict[tuple[int, int], float] = field(default_factory=default_rewards)
    noise_penalty: float = 0.2

    @property
    def atomic_op_names(self) -> list[str]:
        """The token names t0, t1, ..., one per letter of the alphabet."""
        return [f"t{i}" for i in range(self.alphabet_size)]

    def validate(self) -> None:
        check_range("alphabet_size", self.alphabet_size, 2)
        check_range("sequence_length", self.sequence_length, 1)
        for (i, j), r in self.rewards.items():
            if not (0 <= i < self.alphabet_size and 0 <= j < self.alphabet_size):
                raise ConfigError(f"reward pair ({i}, {j}) outside alphabet")
            if i == j:
                raise ConfigError(
                    f"reward pair ({i}, {j}): self-succession is outside the "
                    "chain transition relation"
                )
            check_range(f"reward for ({i}, {j})", r, 0, open_low=True)
        check_range("noise_penalty", self.noise_penalty, 0)
        a, length = self.alphabet_size, self.sequence_length
        if a * a * length > MAX_DP_STATES:
            raise ConfigError(
                f"chain spec too large for exact solving: {a}^2 * {length} transitions"
                f" over {MAX_DP_STATES}"
            )
        # A score or a DP value adds at most length - 1 terms, none larger
        # than the largest reward or penalty: below half the float range,
        # as PairTable bounds its weights, no sum overflows.
        largest = max([self.noise_penalty, *self.rewards.values()])
        if not (length - 1) * largest < 2.0**1023:
            raise ConfigError(
                f"chain scores may overflow: (sequence_length - 1) * {largest}"
                " is not below 2**1023"
            )


def chain_fitness(spec: ChainSpec, tokens: list[int]) -> float:
    """Sum of planted-pair rewards minus the penalty per other adjacency,
    added left to right."""
    total = 0.0
    penalty = -spec.noise_penalty
    for r in map(spec.rewards.get, zip(tokens, tokens[1:])):
        total += penalty if r is None else r
    return total


def planted_rows(spec: ChainSpec) -> dict[int, dict[int, float]]:
    """planted[i]: column -> reward of the planted pairs (i, j).  Every
    other adjacency scores -noise_penalty."""
    planted: dict[int, dict[int, float]] = {}
    for (i, j), r in spec.rewards.items():
        planted.setdefault(i, {})[j] = r
    return planted


def reward_rows(spec: ChainSpec) -> dict[int, list[float]] | None:
    """The scorer table: rows[i][j] is what chain_fitness adds for the
    adjacency (i, j), for every pair of tokens.  Tokens that start no
    planted pair share one row of -noise_penalty; each token that starts
    one has its own row, its rewards at the planted columns.  Keyed by
    token in a dict, so a negative token misses instead of indexing from
    the end.  None when the rows would outnumber the positions: the
    solver's suffix table has one row per position."""
    planted = planted_rows(spec)
    if len(planted) + 1 > spec.sequence_length:
        return None
    penalty = [-spec.noise_penalty] * spec.alphabet_size
    rows = dict.fromkeys(range(spec.alphabet_size), penalty)
    for i, cols in planted.items():
        row = rows[i] = list(penalty)
        for j, r in cols.items():
            row[j] = r
    return rows


def brute_force_optimum(spec: ChainSpec) -> tuple[float, list[int]]:
    """Exact maximum of chain_fitness over full-length sequences.

    Dynamic programming over (position, last token); the witness is the
    lexicographically smallest optimal sequence, recovered by walking the
    suffix-value table greedily from the front.
    """
    spec.validate()  # checks the size cap, MAX_DP_STATES
    a = spec.alphabet_size
    length = spec.sequence_length
    if length == 1:
        return 0.0, [0]

    planted = planted_rows(spec)
    penalty = -spec.noise_penalty
    # suffix[t][i]: best total over positions t..end given token i at t.
    # Float addition is monotone, so no unplanted column of a row scores
    # above penalty + max(next row), and when a planted column j holds
    # that max, it scores r + nxt[j], no less, since r > 0 >= penalty.
    # So the row's best is the larger of that value and its planted
    # scores: the same float as a max over every column.
    suffix = [[0.0] * a for _ in range(length)]
    for t in range(length - 2, -1, -1):
        nxt = suffix[t + 1]
        row = suffix[t] = [penalty + max(nxt)] * a
        for i, cols in planted.items():
            row[i] = max(row[i], *(r + nxt[j] for j, r in cols.items()))
    best = max(suffix[0])
    first = min(i for i in range(a) if suffix[0][i] == best)
    seq = [first]
    for t in range(length - 1):
        cur = seq[-1]
        target = suffix[t][cur]
        nxt_row = suffix[t + 1]
        cols = planted.get(cur, {})
        for j in range(a):
            if cols.get(j, penalty) + nxt_row[j] == target:
                seq.append(j)
                break
    return best, seq


class ChainDomain:
    """Loop-facing adapter.  Sequences longer than the spec budget are
    truncated before scoring so the solver's optimum stays an upper
    bound; success means coming within (1 - SUCCESS_FRACTION) *
    |optimum| of that optimum.

    Scoring walks the reward-row table of reward_rows (at most
    sequence_length rows of alphabet_size floats, as the solver's
    table), adding the floats chain_fitness adds in the same order.
    Without a table, or for a token that is no key of it, chain_fitness
    scores the sequence."""

    # The planted structure never references repeats (self-rewards are
    # rejected), so the valid transition relation drops self-succession.
    transition_mask_mode = "no_self"

    def __init__(self, spec: ChainSpec | None = None):
        self.spec = spec or ChainSpec()
        self.spec.validate()
        self.atomic_op_names = self.spec.atomic_op_names
        self.atomic_count = self.spec.alphabet_size
        length = self.spec.sequence_length
        self.default_genome_bounds = (min(2, length), length)
        self.optimum, self.optimal_sequence = brute_force_optimum(self.spec)
        self.reward_rows = reward_rows(self.spec)
        # Within (1 - SUCCESS_FRACTION) * |optimum| of the optimum; for a
        # positive optimum that is the plain fraction of it.
        if self.optimum > 0:
            self.success_threshold = SUCCESS_FRACTION * self.optimum
        else:
            self.success_threshold = self.optimum - (1 - SUCCESS_FRACTION) * abs(self.optimum)

    def evaluate_sequence(self, ops: list[int], atomic_tokens: list[int]) -> Trajectory:
        scored = atomic_tokens[: self.spec.sequence_length]
        rows = self.reward_rows
        try:
            tokens = iter(scored)
            row = rows[next(tokens)]
            f = 0.0
            for y in tokens:
                f += row[y]
                row = rows[y]
        except (LookupError, TypeError, StopIteration):
            # no table (rows is None), no token, or a token the table
            # cannot index
            f = chain_fitness(self.spec, scored)
        return Trajectory(
            ops=ops,
            atomic_ops=atomic_tokens,
            fitness=f,
            success=f >= self.success_threshold - 1e-12,
            steps_used=len(scored),
        )
