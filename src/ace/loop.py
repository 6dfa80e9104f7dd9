"""Generation loop coupling an explorer with the guidance model.

One loop serves both operating modes: guided runs thread a GcaModel
through offspring generation, reinforce it from improving trajectories,
and periodically promote/prune macros; standard runs pass model=None and
the explorers fall back to uniform sampling with no learned state at all.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import asdict, dataclass, field

from . import gca
from .errors import ConfigError, check_range
from .gca import GcaModel, GcaParams


@dataclass(slots=True)
class Trajectory:
    """An operation sequence plus its evaluation outcome.

    ops may contain macro ids; atomic_ops is its fully flattened form.
    states is the visited state sequence for path domains (None
    elsewhere).
    """

    ops: list[int]
    atomic_ops: list[int]
    fitness: float | None = None
    success: bool = False
    states: list[int] | None = None
    steps_used: int = 0
    wall_hits: int = 0


@dataclass
class ExperimentConfig:
    """Per-run settings shared by both loop modes."""

    population_size: int = 30
    max_generations: int = 100
    abstraction_period: int = 10
    max_new_macros_per_scan: int = gca.DEFAULT_MAX_NEW_MACROS
    prune_min_uses: int = gca.DEFAULT_PRUNE_MIN_USES
    stop_on_success: bool = False
    gca: GcaParams = field(default_factory=GcaParams)
    warm_start_model: str | None = None

    def validate(self) -> None:
        for name, least in (
            ("population_size", 2), ("max_generations", 1), ("abstraction_period", 1),
            ("max_new_macros_per_scan", 0), ("prune_min_uses", 0),
        ):
            check_range(name, getattr(self, name), least)
        self.gca.validate()


@dataclass
class RunRecord:
    """Outcome of a single run."""

    success: bool
    best_fitness: float
    success_generation: int | None
    path_efficiency: float | None
    macros_created: int
    macros_surviving: int
    mean_macro_effectiveness: float
    hebbian_updates: int
    generations_run: int
    wall_clock_seconds: float
    best_fitness_by_generation: list[float]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class PairEvent:
    """An offspring produced by recombining two evaluated parents."""

    parent_a: Trajectory
    parent_b: Trajectory
    child: Trajectory


@dataclass(slots=True)
class TrajectoryEvent:
    """A single trajectory that improved on its owner's previous best."""

    ops: list[int]
    gain: float


@dataclass(slots=True)
class GenerationResult:
    evaluated: list[Trajectory]
    events: list


def count_vector(ops: list[int], n: int) -> list[int]:
    v = [0] * n
    for op in ops:
        v[op] += 1
    return v


def path_efficiency(domain, traj: Trajectory | None) -> float | None:
    """Shortest-path length over steps used, for a successful trajectory
    in a path domain (one exposing shortest_path_len); None otherwise."""
    shortest = getattr(domain, "shortest_path_len", None)
    if traj is None or not traj.success or shortest is None:
        return None
    return shortest / traj.steps_used if traj.steps_used else 1.0


def _account_macro_usage(model: GcaModel, evaluated: list[Trajectory]) -> None:
    """Credit macro uses for this generation's evaluations; a use counts
    as successful when its trajectory beats the generation median."""
    if not model.macros or not evaluated:
        return
    median = statistics.median(t.fitness for t in evaluated)
    atomic = model.atomic_count
    for traj in evaluated:
        won = traj.fitness > median
        for op in traj.ops:
            if op >= atomic:
                m = model.macros[op - atomic]
                m.uses += 1
                if won:
                    m.successful_uses += 1


def _init_model(config: ExperimentConfig, domain) -> GcaModel:
    """A fresh model, or on a warm start the donor's weights, support and
    macros under the run's own hyperparameters (config.gca)."""
    if not hasattr(domain, "atomic_op_names"):
        raise ConfigError(
            f"domain {type(domain).__name__} names no atomic operations for a guided run"
        )
    if config.warm_start_model:
        model = gca.load_model(config.warm_start_model)
        if model.atomic_ops != list(domain.atomic_op_names):
            raise ConfigError(
                "warm-start model vocabulary does not match the domain: "
                f"{model.atomic_ops} vs {list(domain.atomic_op_names)}"
            )
        model.params = config.gca
    else:
        model = GcaModel(list(domain.atomic_op_names), config.gca)
    # The transition mask is domain context, not learned state.
    model.mask_mode = getattr(domain, "transition_mask_mode", "all")
    return model


def _run_loop(
    config: ExperimentConfig,
    explorer,
    domain,
    rng: random.Random,
    model: GcaModel | None,
):
    config.validate()
    explorer.check_domain(domain)
    t_start = time.perf_counter()

    state = explorer.initialize(domain, config, rng)
    best: Trajectory | None = None
    best_successful: Trajectory | None = None
    success_generation: int | None = None
    hebbian_updates = 0
    history: list[float] = []
    generations_run = 0

    for t in range(1, config.max_generations + 1):
        generations_run = t
        result = explorer.run_generation(state, model, domain, config, rng)

        for traj in result.evaluated:
            if best is None or traj.fitness > best.fitness:
                best = traj
            if traj.success:
                if success_generation is None:
                    success_generation = t
                if best_successful is None or traj.fitness > best_successful.fitness:
                    best_successful = traj

        if model is not None:
            n = model.vocab_size
            for ev in result.events:
                if isinstance(ev, PairEvent):
                    gain = ev.child.fitness - 0.5 * (
                        ev.parent_a.fitness + ev.parent_b.fitness
                    )
                    if gain > 0:
                        model.hebbian_pair_update(
                            count_vector(ev.parent_a.ops, n),
                            count_vector(ev.parent_b.ops, n),
                            ev.parent_a.fitness,
                            ev.parent_b.fitness,
                            ev.child.fitness,
                        )
                        hebbian_updates += 1
                else:
                    if ev.gain > 0:
                        model.hebbian_trajectory_update(ev.ops, ev.gain)
                        hebbian_updates += 1
            _account_macro_usage(model, result.evaluated)
            if t % config.abstraction_period == 0:
                model.scan_and_abstract(t, config.max_new_macros_per_scan)
                model.prune_macros(config.prune_min_uses)

        history.append(best.fitness)
        if config.stop_on_success and success_generation is not None:
            break

    if model is not None:
        macros_created = len(model.macros)
        macros_surviving = sum(1 for m in model.macros if not m.pruned)
        used = [m for m in model.macros if m.uses > 0]
        total = gca.add_up(m.successful_uses / m.uses for m in used)
        effectiveness = total / len(used) if used else 0.0
    else:
        macros_created = macros_surviving = 0
        effectiveness = 0.0

    record = RunRecord(
        success=success_generation is not None,
        best_fitness=best.fitness,
        success_generation=success_generation,
        path_efficiency=path_efficiency(domain, best_successful),
        macros_created=macros_created,
        macros_surviving=macros_surviving,
        mean_macro_effectiveness=effectiveness,
        hebbian_updates=hebbian_updates,
        generations_run=generations_run,
        wall_clock_seconds=time.perf_counter() - t_start,
        best_fitness_by_generation=history,
    )
    return best, record


def run_ace(config: ExperimentConfig, explorer, domain, rng: random.Random):
    """Guided run: returns (best trajectory, trained model, record)."""
    model = _init_model(config, domain)
    best, record = _run_loop(config, explorer, domain, rng, model)
    return best, model, record


def run_standard(config: ExperimentConfig, explorer, domain, rng: random.Random):
    """Baseline run with uniform sampling and no learned state."""
    best, record = _run_loop(config, explorer, domain, rng, None)
    return best, record
