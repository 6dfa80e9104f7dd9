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
from dataclasses import dataclass, field
from itertools import repeat

from .errors import ConfigError, check_range
from .gca import GcaModel, softmax_floor_choice
from .loop import ExperimentConfig, GenerationResult, Trajectory, TrajectoryEvent

# Steps in one constructed path, capped for an explicit max_path_len (and a
# suite's maze path_slack) so that a mistyped budget fails when checked
# instead of walking without end.  The default, 2 x cells, stays below it.
MAX_PATH_LEN = 1_000_000


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
            check_range(name, getattr(self, name), 0)
        if self.max_path_len is not None:
            check_range("max_path_len", self.max_path_len, 1)
            check_range("max_path_len", self.max_path_len, high=MAX_PATH_LEN)
        if self.dead_end_mode not in ("backtrack", "terminate"):
            raise ConfigError(f"unknown dead_end_mode {self.dead_end_mode!r}")


@dataclass
class Particle:
    current: Trajectory | None = None
    pbest: Trajectory | None = None
    pbest_fitness: float = -math.inf


def _reference_states(traj: Trajectory | None) -> list[int] | tuple:
    return traj.states or () if traj is not None else ()


# A stride memo: a macro's atomic moves -> {cell: (cells, wall)}, where
# cells are the cells its stride walks from that cell until a wall or the
# goal, and wall is the index of the move into the wall (-1 if none).
StrideMemo = dict[tuple[int, ...], dict[int, tuple[tuple[int, ...], int]]]


def _walk_stride(step: list[int], cell: int, flat: tuple[int, ...], goal: int):
    """A stride's (cells, wall) from cell, with no path-length cap."""
    cells: list[int] = []
    for i, mv in enumerate(flat):
        cell = step[4 * cell + mv]
        if cell < 0:
            return tuple(cells), i
        cells.append(cell)
        if cell == goal:
            break
    return tuple(cells), -1


def construct_path(
    particle: Particle,
    gbest: Trajectory | None,
    params: PsoParams,
    model: GcaModel | None,
    domain,
    rng: random.Random,
    epsilon: float,
    *,
    stride_memo: StrideMemo | None = None,
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
    exploration floor for the candidate selection; it must lie in (0, 1),
    which is checked before any variate is drawn.  A step with a single
    candidate draws the three variates a scored candidate would (two for
    alignment, one for the selection) and takes it unscored: a one-entry
    distribution selects it whatever its score.  Construction stops at
    the goal or at the path-length cap.

    stride_memo keeps each macro stride walked from a cell, uncapped, so
    that it is walked once per memo; each step cuts it to the remaining
    budget.  It assumes the domain's step table and goal stay as they
    are while the memo lives: share one only between calls on one domain
    (None: a fresh memo for this call).
    """
    check_range("exploration floor", epsilon, 0, 1, open_low=True, open_high=True)
    step = domain.step_table
    heuristic = domain.heuristic
    goal = domain.goal_index
    max_len = params.max_path_len or domain.default_max_path_len

    macro_info = []
    if model is not None:
        if stride_memo is None:
            stride_memo = {}
        for macro in model.macros:
            if not macro.pruned:
                flat = tuple(model.flatten_macro(macro.id))
                macro_info.append((macro.id, flat[0], flat, stride_memo.setdefault(flat, {})))

    # A candidate aligns with a reference path when that path sits on the
    # candidate's end cell at the same depth.
    prev_states = _reference_states(particle.current)
    pbest_states = _reference_states(particle.pbest)
    gbest_states = _reference_states(gbest)
    n_prev, n_pbest, n_gbest = len(prev_states), len(pbest_states), len(gbest_states)

    w = params.inertia
    c1 = params.cognitive
    c2 = params.social
    alpha = params.heuristic_weight
    lam = params.guidance_weight
    guided = model is not None
    rand = rng.random

    cur = domain.start_index
    prev_cell = -1
    prev_op: int | None = None
    states = [cur]
    ops: list[int] = []
    moves: list[int] = []
    steps = 0

    terminate_at_dead_ends = params.dead_end_mode == "terminate"
    no_term = repeat((None, 0.0))  # standard mode: never added
    while cur != goal and steps < max_len:
        # Candidates: atomic moves in N,E,S,W order, then macros in id
        # order; each ends on a cell, at an index of the path being built.
        base = 4 * cur
        cand: list[int] = []
        ends: list[int] = []
        for m in (0, 1, 2, 3):
            c = step[base + m]
            if c != prev_cell and c >= 0:
                cand.append(m)
                ends.append(c)
        if not cand:
            # A dead end: the only open move, if any, leads back.
            cand = [m for m in (0, 1, 2, 3) if step[base + m] >= 0]
            if terminate_at_dead_ends or not cand:
                break
            ends = [step[base + m] for m in cand]
        n_moves = len(cand)
        end_at = [steps + 1] * n_moves
        strides: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (cells, flat) per macro
        if macro_info:
            allowed = tuple(cand)
            room = max_len - steps
            for macro_id, first_move, flat, walks in macro_info:
                if first_move not in allowed:
                    continue
                walk = walks.get(cur)
                if walk is None:
                    walk = walks[cur] = _walk_stride(step, cur, flat, goal)
                cells, wall = walk
                if 0 <= wall < room:
                    continue  # a wall within the budget: not a candidate this step
                if len(cells) > room:
                    cells = cells[:room]
                cand.append(macro_id)
                ends.append(cells[-1])
                end_at.append(steps + len(cells))
                strides.append((cells, flat))

        if len(cand) == 1:
            # A lone candidate is an atomic move (a macro competes only
            # beside its first move), and any score selects it: only the
            # two alignment variates and the selection variate remain.
            rand()
            rand()
            rand()
            pick = 0
        else:
            # The learned term, as (op, probability) per candidate.
            if not guided:
                learned = no_term
            elif prev_op is None:
                learned = repeat((None, 1.0 / len(cand)))
            else:
                learned = model.floored_distribution(prev_op, cand)

            # A bool counts as 1 or 0: the alignment terms are
            # coefficient * 1.0 or coefficient * 0.0, as a 0/1 float would.
            scores = []
            for end, at, (_, p) in zip(ends, end_at, learned):
                s = alpha * heuristic[end] + w * (at < n_prev and prev_states[at] == end)
                r1 = rand()
                r2 = rand()
                s += c1 * r1 * (at < n_pbest and pbest_states[at] == end)
                s += c2 * r2 * (at < n_gbest and gbest_states[at] == end)
                if guided:
                    s += lam * p
                scores.append(s)

            pick = softmax_floor_choice(scores, epsilon, rng)
        op = cand[pick]
        if pick < n_moves:
            moves.append(op)
            ops.append(op)
            prev_op = op
            states.append(ends[pick])
            steps += 1
        else:
            cells, flat = strides[pick - n_moves]
            taken = len(cells)
            states.extend(cells)
            moves.extend(flat[:taken])
            if taken < len(flat):
                # Stride cut short by the goal or the cap: record what ran.
                ops.extend(flat[:taken])
                prev_op = flat[taken - 1]
            else:
                ops.append(op)
                prev_op = op
            steps += taken
        prev_cell = states[-2]
        cur = states[-1]

    return domain.evaluate_path(states, ops, moves, success=cur == goal)


def pso_generation(
    swarm: list[Particle],
    gbest: Trajectory | None,
    params: PsoParams,
    model: GcaModel | None,
    domain,
    rng: random.Random,
    epsilon: float,
    *,
    stride_memo: StrideMemo | None = None,
) -> tuple[Trajectory | None, list[Trajectory], list[TrajectoryEvent]]:
    """One sweep: every particle rebuilds its path against the entering
    swarm best; personal-best improvements emit reinforcement events; the
    swarm best is recomputed afterwards (ties keep the lowest index).
    The particles share stride_memo (None: a fresh one for this sweep)."""
    if stride_memo is None:
        stride_memo = {}
    new_paths: list[Trajectory] = []
    events: list[TrajectoryEvent] = []
    for particle in swarm:
        traj = construct_path(
            particle, gbest, params, model, domain, rng, epsilon, stride_memo=stride_memo
        )
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
    # Macro strides walked so far in this run, on its one domain.
    stride_memo: StrideMemo = field(default_factory=dict)


class PsoExplorer:
    def __init__(self, params: PsoParams | None = None):
        self.params = params or PsoParams()
        self.params.validate()

    def check_domain(self, domain) -> None:
        needed = ("step_table", "heuristic", "start_index", "goal_index")
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
            stride_memo=state.stride_memo,
        )
        state.gbest = gbest
        return GenerationResult(new_paths, events)
