"""Synthetic token-chain domain with an exactly solvable optimum.

Fitness rewards planted adjacent token pairs and charges a small penalty
for every other adjacency, so the best achievable sequence (and its
value) follows from dynamic programming over (position, last token).
That makes this domain the ground-truth testbed: planted pairs are the
patterns the guidance model is supposed to learn and promote to macros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .loop import Trajectory

# Position-by-token states capped to keep the solver interactive.
MAX_DP_STATES = 100_000_000


def default_rewards() -> dict[tuple[int, int], float]:
    return {(0, 1): 5.0, (2, 3): 3.0}


@dataclass
class ChainSpec:
    alphabet_size: int = 6
    sequence_length: int = 12
    rewards: dict[tuple[int, int], float] = field(default_factory=default_rewards)
    noise_penalty: float = 0.2

    def validate(self) -> None:
        if self.alphabet_size < 2:
            raise ConfigError(f"alphabet_size must be >= 2, got {self.alphabet_size}")
        if self.sequence_length < 1:
            raise ConfigError(f"sequence_length must be >= 1, got {self.sequence_length}")
        for (i, j), r in self.rewards.items():
            if not (0 <= i < self.alphabet_size and 0 <= j < self.alphabet_size):
                raise ConfigError(f"reward pair ({i}, {j}) outside alphabet")
            if i == j:
                raise ConfigError(
                    f"reward pair ({i}, {j}): self-succession is outside the "
                    "chain transition relation"
                )
            if r <= 0:
                raise ConfigError(f"reward for ({i}, {j}) must be > 0, got {r}")
        if self.noise_penalty < 0:
            raise ConfigError(f"noise_penalty must be >= 0, got {self.noise_penalty}")


def chain_fitness(spec: ChainSpec, tokens: list[int]) -> float:
    """Sum of planted-pair rewards minus the penalty per other adjacency."""
    total = 0.0
    rewards = spec.rewards
    penalty = spec.noise_penalty
    for t in range(len(tokens) - 1):
        r = rewards.get((tokens[t], tokens[t + 1]))
        total += r if r is not None else -penalty
    return total


def brute_force_optimum(spec: ChainSpec) -> tuple[float, list[int]]:
    """Exact maximum of chain_fitness over full-length sequences.

    Dynamic programming over (position, last token); the witness is the
    lexicographically smallest optimal sequence, recovered by walking the
    suffix-value table greedily from the front.
    """
    spec.validate()
    a = spec.alphabet_size
    length = spec.sequence_length
    if a * a * length > MAX_DP_STATES:
        raise ConfigError(
            f"chain spec too large for exact solving: {a}^2 * {length} transitions"
        )
    if length == 1:
        return 0.0, [0]

    def score(i: int, j: int) -> float:
        r = spec.rewards.get((i, j))
        return r if r is not None else -spec.noise_penalty

    # suffix[t][i]: best total over positions t..end given token i at t.
    suffix = [[0.0] * a for _ in range(length)]
    for t in range(length - 2, -1, -1):
        nxt = suffix[t + 1]
        row = suffix[t]
        for i in range(a):
            row[i] = max(score(i, j) + nxt[j] for j in range(a))
    best = max(suffix[0])
    first = min(i for i in range(a) if suffix[0][i] == best)
    seq = [first]
    for t in range(length - 1):
        cur = seq[-1]
        target = suffix[t][cur]
        nxt_row = suffix[t + 1]
        for j in range(a):
            if score(cur, j) + nxt_row[j] == target:
                seq.append(j)
                break
    return best, seq


class ChainDomain:
    """Loop-facing adapter.  Sequences longer than the spec budget are
    truncated before scoring so the solver's optimum stays an upper
    bound; success means coming within (1 - success_fraction) *
    |optimum| of that optimum."""

    # The planted structure never references repeats (self-rewards are
    # rejected), so the valid transition relation drops self-succession.
    transition_mask_mode = "no_self"

    def __init__(self, spec: ChainSpec | None = None, *, success_fraction: float = 0.95):
        self.spec = spec or ChainSpec()
        self.spec.validate()
        self.success_fraction = success_fraction
        self.atomic_op_names = [f"t{i}" for i in range(self.spec.alphabet_size)]
        self.atomic_count = self.spec.alphabet_size
        self.default_genome_bounds = (2, self.spec.sequence_length)
        self.optimum, self.optimal_sequence = brute_force_optimum(self.spec)
        # Within (1 - success_fraction) * |optimum| of the optimum; for a
        # positive optimum that is the plain fraction of it.
        if self.optimum > 0:
            self.success_threshold = success_fraction * self.optimum
        else:
            self.success_threshold = self.optimum - (1 - success_fraction) * abs(self.optimum)

    def evaluate_sequence(self, ops: list[int], atomic_tokens: list[int]) -> Trajectory:
        scored = atomic_tokens[: self.spec.sequence_length]
        f = chain_fitness(self.spec, scored)
        return Trajectory(
            ops=ops,
            atomic_ops=atomic_tokens,
            fitness=f,
            success=f >= self.success_threshold - 1e-12,
            steps_used=len(scored),
        )
