"""Evolutionary explorer: variable-length operation genomes, one-point
crossover, guided mutation, tournament selection with elitism."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ConfigError, DomainError, check_range
from .gca import GcaModel
from .loop import ExperimentConfig, GenerationResult, PairEvent, Trajectory

# Explicit genome length bounds are capped so that a mistyped bound fails
# when checked instead of building genomes without end.  It admits the
# default bound 4 x cells of every maze that maze.MAX_MAZE_CELLS admits.
MAX_GENOME_LEN = 1_000_000
# Entrants per tournament, capped likewise: each selection draws that
# many.  The shipped suites use 2 and 3.
MAX_TOURNAMENT_SIZE = 10_000


@dataclass
class EaParams:
    crossover_rate: float = 0.3
    mutation_rate: float = 0.4
    elitism_fraction: float = 0.10
    tournament_size: int = 3
    min_len: int | None = None  # None: take the domain's defaults
    max_len: int | None = None

    def validate(self) -> None:
        for name in ("crossover_rate", "mutation_rate", "elitism_fraction"):
            check_range(name, getattr(self, name), 0, 1)
        check_range("tournament_size", self.tournament_size, 2, MAX_TOURNAMENT_SIZE)
        for name in ("min_len", "max_len"):
            v = getattr(self, name)
            if v is not None:
                check_range(name, v, 1)
                check_range(name, v, high=MAX_GENOME_LEN)
        if self.min_len is not None and self.max_len is not None:
            if self.min_len > self.max_len:
                raise ConfigError(
                    f"need 1 <= min_len <= max_len, got {self.min_len}..{self.max_len}"
                )

    def genome_bounds(self, default: tuple[int, int]) -> tuple[int, int]:
        """The genome length range over a domain with the given default
        bounds: min_len and max_len where set, else the default's; a
        ConfigError if the range is empty."""
        lo, hi = default
        if self.min_len is not None:
            lo = self.min_len
        if self.max_len is not None:
            hi = self.max_len
        if lo > hi:
            raise ConfigError(
                f"empty genome length range {lo}..{hi}: min_len={self.min_len}, "
                f"max_len={self.max_len}, domain default bounds {default}"
            )
        return lo, hi


def crossover(
    ops_a: list[int],
    ops_b: list[int],
    rng: random.Random,
    min_len: int = 1,
    max_len: int | None = None,
) -> list[int]:
    """One-point crossover with an independent cut per parent.

    The child is a's prefix followed by b's suffix.  The second cut is
    restricted so the child never falls below min_len (truncation alone
    can only enforce the upper bound); anything past max_len is dropped.
    Each cut is drawn as rng.randint(0, hi) would draw it, by
    randrange(hi + 1)'s rule as in mutate.
    """
    getrandbits = rng.getrandbits
    n = len(ops_a) + 1
    k = n.bit_length()
    cut_a = getrandbits(k)
    while cut_a >= n:
        cut_a = getrandbits(k)
    hi = min(len(ops_b), cut_a + len(ops_b) - min_len)
    if hi > 0:
        n = hi + 1
        k = n.bit_length()
        cut_b = getrandbits(k)
        while cut_b >= n:
            cut_b = getrandbits(k)
    else:
        cut_b = 0
    child = ops_a[:cut_a] + ops_b[cut_b:]
    if max_len is not None and len(child) > max_len:
        child = child[:max_len]
    return child


def _atomic_count(domain) -> int:
    # The inlined draws below never end on an empty range.
    n = domain.atomic_count
    if n < 1:
        raise ConfigError(
            f"domain {type(domain).__name__} has no atomic operations (atomic_count {n})"
        )
    return n


def mutate(
    ops: list[int],
    model: GcaModel | None,
    domain,
    rate: float,
    rng: random.Random,
) -> list[int]:
    """Replace each position independently with probability rate.

    Guided mode draws the replacement from the model's floored transition
    distribution conditioned on the preceding op (uniform over the
    vocabulary at position 0); standard mode draws uniformly from the
    domain's atomic operations, as rng.randrange(domain.atomic_count)
    would.  A domain without atomic operations raises ConfigError before
    any variate is drawn.
    """
    n = _atomic_count(domain)
    out = list(ops)
    rand = rng.random
    if model is None:
        # randrange(n)'s rule for n >= 1, without its three frames per draw
        k = n.bit_length()
        getrandbits = rng.getrandbits
        for t in range(len(out)):
            if rand() < rate:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                out[t] = r
        return out
    sample = model.sample_successor
    for t in range(len(out)):
        if rand() >= rate:
            continue
        if t == 0:
            vocab = model.sampling_vocabulary()
            out[0] = vocab[rng.randrange(len(vocab))]
        else:
            out[t] = sample(out[t - 1], rng)
    return out


def _tournament(
    population: list[Trajectory], size: int, rng: random.Random
) -> Trajectory:
    """The fittest of size entrants drawn with replacement, as
    rng.randrange(len(population)) would draw them; ties go to the
    lower index."""
    n = len(population)
    if n < 1:
        raise DomainError("tournament over an empty population")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    best_idx = getrandbits(k)
    while best_idx >= n:
        best_idx = getrandbits(k)
    best = population[best_idx].fitness
    for _ in range(size - 1):
        idx = getrandbits(k)
        while idx >= n:
            idx = getrandbits(k)
        f = population[idx].fitness
        if f > best or (f == best and idx < best_idx):
            best_idx, best = idx, f
    return population[best_idx]


def select(
    population: list[Trajectory],
    params: EaParams,
    rng: random.Random,
    target_size: int | None = None,
) -> list[Trajectory]:
    """Elites carried over verbatim, remainder filled by tournaments with
    replacement.  target_size defaults to the input size."""
    n = target_size if target_size is not None else len(population)
    neg = [-tr.fitness for tr in population]
    total = sum(neg)  # NaN if any fitness is NaN
    if total == total:
        # The sort is stable, so equal fitness keeps index order, the
        # order of the key (-fitness, index).
        order = sorted(range(len(population)), key=neg.__getitem__)
    else:
        # NaN compares false both ways, so the comparisons the sort makes
        # place it; from Python 3.13 on they differ without the index.
        order = sorted(range(len(population)), key=lambda i: (neg[i], i))
    elite_count = min(n, math.ceil(params.elitism_fraction * n))
    survivors = [population[i] for i in order[:elite_count]]
    while len(survivors) < n:
        survivors.append(_tournament(population, params.tournament_size, rng))
    return survivors


@dataclass
class EaState:
    population: list[Trajectory]
    evaluated: bool = False


class EaExplorer:
    def __init__(self, params: EaParams | None = None):
        self.params = params or EaParams()
        self.params.validate()

    def check_domain(self, domain) -> None:
        needed = ("evaluate_sequence", "atomic_count", "default_genome_bounds")
        missing = [a for a in needed if not hasattr(domain, a)]
        if missing:
            raise ConfigError(
                f"domain {type(domain).__name__} does not evaluate operation "
                f"sequences: no {', '.join(missing)}"
            )
        _atomic_count(domain)

    def initialize(self, domain, config: ExperimentConfig, rng: random.Random) -> EaState:
        lo, hi = self.params.genome_bounds(domain.default_genome_bounds)
        n = _atomic_count(domain)
        k = n.bit_length()
        span = hi - lo + 1
        k_span = span.bit_length()
        getrandbits = rng.getrandbits
        population = []
        for _ in range(config.population_size):
            length = getrandbits(k_span)  # as rng.randint(lo, hi), see mutate
            while length >= span:
                length = getrandbits(k_span)
            ops = []
            for _ in range(lo + length):
                r = getrandbits(k)  # as rng.randrange(n)
                while r >= n:
                    r = getrandbits(k)
                ops.append(r)
            population.append(Trajectory(ops=ops, atomic_ops=[]))
        return EaState(population)

    def _evaluate(self, ops: list[int], model: GcaModel | None, domain) -> Trajectory:
        flat = model.flatten_sequence(ops) if model is not None else ops
        return domain.evaluate_sequence(ops, flat)

    def run_generation(
        self,
        state: EaState,
        model: GcaModel | None,
        domain,
        config: ExperimentConfig,
        rng: random.Random,
    ) -> GenerationResult:
        p = self.params
        lo, hi = p.genome_bounds(domain.default_genome_bounds)
        evaluated: list[Trajectory] = []

        if not state.evaluated:
            state.population = [
                self._evaluate(traj.ops, model, domain) for traj in state.population
            ]
            evaluated.extend(state.population)
            state.evaluated = True

        population = state.population
        offspring: list[Trajectory] = []
        events: list[PairEvent] = []
        for _ in range(config.population_size):
            parent_a = _tournament(population, p.tournament_size, rng)
            parent_b = _tournament(population, p.tournament_size, rng)
            crossed = rng.random() < p.crossover_rate
            if crossed:
                child_ops = crossover(parent_a.ops, parent_b.ops, rng, lo, hi)
            else:
                child_ops = list(parent_a.ops)
            child_ops = mutate(child_ops, model, domain, p.mutation_rate, rng)
            child = self._evaluate(child_ops, model, domain)
            offspring.append(child)
            if crossed:
                # The child's gain over its parents' mean is this explorer's
                # Hebbian credit; only an improving child earns any.
                gain = child.fitness - 0.5 * (parent_a.fitness + parent_b.fitness)
                if gain > 0:
                    events.append(PairEvent(parent_a.ops, parent_b.ops, gain))
        evaluated.extend(offspring)

        state.population = select(
            population + offspring, p, rng, target_size=config.population_size
        )
        return GenerationResult(evaluated, events)
