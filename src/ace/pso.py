"""Discrete particle-swarm explorer.

Particles rebuild a path from the start every generation, choosing each
step from a composite neighbor score: alignment with the particle's
previous path, its personal best and the swarm best, a goal-distance
heuristic, and (in guided mode) the learned transition probability of
the corresponding move.  Scores become a selection distribution through
a softmax and the exploration floor.  Learning feeds back through
single-trajectory reinforcement whenever a particle beats its own best.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

from .errors import ConfigError
from .gca import GcaModel, apply_exploration_floor, draw
from .loop import ExperimentConfig, GenerationResult, Trajectory, TrajectoryEvent


@dataclass
class PsoParams:
    inertia: float = 0.4            # previous-path alignment
    cognitive: float = 1.0          # personal-best alignment
    social: float = 1.0             # swarm-best alignment
    heuristic_weight: float = 0.5   # goal-distance bias, active in both modes
    guidance_weight: float = 1.0    # learned transition term, guided mode only
    max_path_len: int | None = None  # None: take the domain default
    # What happens when the only way out is the cell just departed:
    # "backtrack" turns around, "terminate" ends the walk there.
    dead_end_mode: str = "backtrack"

    def validate(self) -> None:
        for name in ("inertia", "cognitive", "social", "heuristic_weight", "guidance_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.max_path_len is not None and self.max_path_len < 1:
            raise ConfigError(f"max_path_len must be >= 1, got {self.max_path_len}")
        if self.dead_end_mode not in ("backtrack", "terminate"):
            raise ConfigError(f"unknown dead_end_mode {self.dead_end_mode!r}")


@dataclass
class Particle:
    current: Trajectory | None = None
    pbest: Trajectory | None = None
    pbest_fitness: float = -math.inf


def _aligned(states: list[int] | None, step_index: int, cell: int) -> float:
    """1.0 when the reference path sits on this cell at the same depth."""
    if states is not None and len(states) > step_index + 1 and states[step_index + 1] == cell:
        return 1.0
    return 0.0


def _softmax_floor(scores: list[float], epsilon: float) -> list[float]:
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    z = sum(exps)
    probs = [(i, e / z) for i, e in enumerate(exps)]
    return [p for _, p in apply_exploration_floor(probs, epsilon)]


def construct_path(
    particle: Particle,
    gbest: Trajectory | None,
    params: PsoParams,
    model: GcaModel | None,
    domain,
    rng: random.Random,
    epsilon: float,
) -> Trajectory:
    """Build one path from the start, step by step.

    At each node every valid move is scored (immediate backtracking is
    excluded unless it is the only way out); in guided mode, unpruned
    macros whose first move is currently allowed compete as candidates
    too.  A macro's flattened stride is walked in simulation first: any
    wall along it drops the macro from this step's candidate set (which
    leaves the same selection distribution as sampling it, rejecting,
    and redrawing without it, since scores are unaffected).  Surviving
    macros are scored at the cell their stride reaches, with alignment
    checked at the corresponding path depth, and carry their own learned
    transition probability.  That learned term is the floored
    probability of the candidate among this step's candidates,
    conditioned on the op that entered the node (uniform at the path
    start); it is zero without a model.  epsilon is the run's
    exploration floor for the candidate selection.  Construction stops at
    the goal or at the path-length cap.
    """
    nbr_table = domain.neighbor_table
    heuristic = domain.heuristic
    goal = domain.goal_index
    atomic = domain.atomic_count
    max_len = params.max_path_len or domain.default_max_path_len

    macro_info = []
    if model is not None:
        for macro in model.unpruned_macros():
            flat = model.flatten_macro(macro.id)
            macro_info.append((macro.id, flat[0], flat))

    prev_states = particle.current.states if particle.current else None
    pbest_states = particle.pbest.states if particle.pbest else None
    gbest_states = gbest.states if gbest else None

    w = params.inertia
    c1 = params.cognitive
    c2 = params.social
    alpha = params.heuristic_weight
    lam = params.guidance_weight

    cur = domain.start_index
    prev_cell = -1
    prev_op: int | None = None
    states = [cur]
    ops: list[int] = []
    moves: list[int] = []
    steps = 0

    terminate_at_dead_ends = params.dead_end_mode == "terminate"
    while cur != goal and steps < max_len:
        nbrs = nbr_table[cur]
        allowed = [(m, c) for m, c in nbrs if c != prev_cell]
        if not allowed:
            if terminate_at_dead_ends or not nbrs:
                break
            allowed = list(nbrs)

        # Candidate = (op, cells along its stride); one cell for a move.
        candidates: list[tuple[int, list[int]]] = [(m, [c]) for m, c in allowed]
        if macro_info:
            allowed_moves = {m for m, _ in allowed}
            for macro_id, first_move, flat in macro_info:
                if first_move not in allowed_moves:
                    continue
                sim_cells = []
                pos = cur
                rejected = False
                for mv in flat:
                    nxt = None
                    for m, c in nbr_table[pos]:
                        if m == mv:
                            nxt = c
                            break
                    if nxt is None:
                        rejected = True
                        break
                    sim_cells.append(nxt)
                    pos = nxt
                    if pos == goal or steps + len(sim_cells) >= max_len:
                        break
                if not rejected:
                    candidates.append((macro_id, sim_cells))

        if model is not None:
            if prev_op is None:
                p_uniform = 1.0 / len(candidates)
                p_theta = [p_uniform] * len(candidates)
            else:
                dist = model.floored_distribution(prev_op, [op for op, _ in candidates])
                p_theta = [p for _, p in dist]

        scores = []
        for idx, (op, cells) in enumerate(candidates):
            depth = steps + len(cells) - 1
            end = cells[-1]
            s = alpha * heuristic[end] + w * _aligned(prev_states, depth, end)
            r1 = rng.random()
            r2 = rng.random()
            s += c1 * r1 * _aligned(pbest_states, depth, end)
            s += c2 * r2 * _aligned(gbest_states, depth, end)
            if model is not None:
                s += lam * p_theta[idx]
            scores.append(s)

        probs = _softmax_floor(scores, epsilon)
        op, cells = candidates[draw(list(accumulate(probs)), rng)]
        taken = len(cells)
        states.extend(cells)
        if op < atomic:
            moves.append(op)
            ops.append(op)
            prev_op = op
        else:
            stride = model.flatten_macro(op)
            moves.extend(stride[:taken])
            if taken < len(stride):
                # Stride cut short by the goal or the cap: record what ran.
                ops.extend(stride[:taken])
                prev_op = stride[taken - 1]
            else:
                ops.append(op)
                prev_op = op
        prev_cell = states[-2]
        cur = states[-1]
        steps += taken

    return domain.evaluate_path(states, ops, moves, success=cur == goal)


def pso_generation(
    swarm: list[Particle],
    gbest: Trajectory | None,
    params: PsoParams,
    model: GcaModel | None,
    domain,
    rng: random.Random,
    epsilon: float,
) -> tuple[Trajectory | None, list[Trajectory], list[TrajectoryEvent]]:
    """One sweep: every particle rebuilds its path against the entering
    swarm best; personal-best improvements emit reinforcement events; the
    swarm best is recomputed afterwards (ties keep the lowest index)."""
    new_paths: list[Trajectory] = []
    events: list[TrajectoryEvent] = []
    for particle in swarm:
        traj = construct_path(particle, gbest, params, model, domain, rng, epsilon)
        new_paths.append(traj)
        particle.current = traj
        if particle.pbest is None:
            particle.pbest = traj
            particle.pbest_fitness = traj.fitness
        elif traj.fitness > particle.pbest_fitness:
            events.append(TrajectoryEvent(traj.ops, traj.fitness - particle.pbest_fitness))
            particle.pbest = traj
            particle.pbest_fitness = traj.fitness

    best = swarm[0]
    for particle in swarm[1:]:
        if particle.pbest_fitness > best.pbest_fitness:
            best = particle
    return best.pbest, new_paths, events


@dataclass
class PsoState:
    swarm: list[Particle]
    gbest: Trajectory | None = None


class PsoExplorer:
    def __init__(self, params: PsoParams | None = None):
        self.params = params or PsoParams()
        self.params.validate()

    def check_domain(self, domain) -> None:
        needed = ("neighbor_table", "heuristic", "start_index", "goal_index")
        if not all(hasattr(domain, a) for a in needed):
            raise ConfigError(
                f"domain {type(domain).__name__} does not expose a stepwise path interface"
            )

    def initialize(self, domain, config: ExperimentConfig, rng: random.Random) -> PsoState:
        return PsoState(swarm=[Particle() for _ in range(config.population_size)])

    def run_generation(
        self,
        state: PsoState,
        t: int,
        model: GcaModel | None,
        domain,
        config: ExperimentConfig,
        rng: random.Random,
    ) -> GenerationResult:
        gbest, new_paths, events = pso_generation(
            state.swarm,
            state.gbest,
            self.params,
            model,
            domain,
            rng,
            config.gca.exploration_floor,
        )
        state.gbest = gbest
        return GenerationResult(new_paths, events)
