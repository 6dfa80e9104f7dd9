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
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat

from .errors import ConfigError, DomainError, check_range
from .gca import GcaModel, softmax_floor_choice, softmax_floor_sums
from .loop import ExperimentConfig, GenerationResult, Trajectory, TrajectoryEvent

@dataclass
class PsoParams:
    inertia: float = 0.4            # previous-path alignment
    cognitive: float = 1.0          # personal-best alignment
    social: float = 1.0             # swarm-best alignment
    heuristic_weight: float = 0.5   # goal-distance bias, active in both modes
    guidance_weight: float = 1.0    # learned transition term, guided mode only
    # What happens when the only way out is the cell just departed:
    # "backtrack" turns around, "terminate" ends the walk there.
    dead_end_mode: str = "backtrack"

    def validate(self) -> None:
        for name in ("inertia", "cognitive", "social", "heuristic_weight", "guidance_weight"):
            check_range(name, getattr(self, name), 0, math.inf, open_high=True)
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

# A corridor: the moves of a run of forced steps and the cells they reach.
Corridor = tuple[tuple[int, ...], tuple[int, ...]]

# A cached selection law: ((heuristic_weight, inertia term, cognitive
# term, social term, epsilon), sums), where the terms are those of an
# alignment no reference path meets (c * 0, or c * r * 0) and sums are
# softmax_floor_sums of the scores they give the step's candidates.
Law = tuple[tuple[float, float, float, float, float], list[float]]

# A move table: (moves, ends, dead_end, corridor, law) for each (cell,
# entry cell) a step has met, keyed by entry cell * cells + cell (entry
# cell -1 at the start).  moves are the step's atomic candidates in N, E,
# S, W order and ends the cells they reach; dead_end tells that the only
# way out, if any, leads back to the entry cell, and moves then hold that
# way back.  corridor is None until a step with one candidate is taken
# with no macro live; it then holds the corridor that step begins (see
# _corridor).  law is None until a standard step there is scored with no
# reference path on any end cell; it then holds that step's law, which a
# later such step reuses while its coefficients and epsilon are the ones
# the law was built from, and replaces otherwise.
MoveTable = dict[
    int, tuple[tuple[int, ...], tuple[int, ...], bool, Corridor | None, Law | None]
]

# A step's candidates with the live macros joined: (cand, ends, depths,
# strides, reach).  cand holds the atomic moves, then the macros that
# join, in id order; ends the cells they reach, depths the steps each
# takes (1 for a move), and strides the (cells, flat) of each macro
# (depths and strides None if none joins).  A macro-table entry is built
# with no budget: no stride is cut and every wall drops its macro.  It
# holds the candidates of each step there whose remaining budget is at
# least reach, which every stride fits in and every such wall lies
# within.
MacroMoves = tuple[
    tuple[int, ...], tuple[int, ...], tuple[int, ...],
    tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] | None, int,
]

# A macro table: the live macros as ((id, flat), ...) in id order -> the
# MacroMoves of each (cell, entry cell) met, under the move table's key.
# It holds one live-macro set at a time: a call with another set drops it.
MacroTable = dict[tuple[tuple[int, tuple[int, ...]], ...], dict[int, MacroMoves]]


def _step_moves(step: list[int], cell: int, entry: int):
    """A move-table entry: the atomic candidates of a step at cell
    entered from entry, its corridor and law not yet known."""
    ways = step[4 * cell:4 * cell + 4]
    moves = tuple(m for m in (0, 1, 2, 3) if ways[m] != entry and ways[m] >= 0)
    dead_end = not moves
    if dead_end:
        moves = tuple(m for m in (0, 1, 2, 3) if ways[m] >= 0)
    return moves, tuple(ways[m] for m in moves), dead_end, None, None


def _corridor(step: list[int], move_table: MoveTable, cell: int, entry: int, goal: int) -> Corridor:
    """The corridor from cell entered from entry, whose step (stored in
    move_table) has one candidate: the moves and the cells reached of that
    step and of each forced step after it, up to the goal.  It ends before
    a step with another number of candidates, a dead end or a (cell, entry
    cell) already in it, so that a dead end's turn, which depends on the
    dead-end mode, always begins a corridor of its own.  Steps past the
    first are read without being stored, as a walk cut short would not
    have met them."""
    n_cells = len(step) >> 2
    key = entry * n_cells + cell
    (move,), (nxt,), *_ = move_table[key]
    moves, cells, seen = [move], [nxt], {key}
    while nxt != goal:
        entry, cell = cell, nxt
        key = entry * n_cells + cell
        if key in seen:
            break
        seen.add(key)
        cand, ends, dead_end, *_ = move_table.get(key) or _step_moves(step, cell, entry)
        if dead_end or len(cand) != 1:
            break
        moves.append(cand[0])
        nxt = ends[0]
        cells.append(nxt)
    return tuple(moves), tuple(cells)


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


def _macro_moves(
    step: list[int], cell: int, cand, ends, macro_info, goal: int, room: float
) -> MacroMoves:
    """The MacroMoves of a step at cell with atomic candidates cand
    ending at ends and room steps left: each live macro whose first move
    is among them joins, its stride cut to room, unless it meets a wall
    within room; reach is the smallest budget that holds each joined
    stride and each such wall (the move into it included)."""
    allowed, atomic_ends = cand, ends
    cand, ends, depths, strides, reach = list(cand), list(ends), [1] * len(cand), [], 1
    for macro_id, first_move, flat, walks in macro_info:
        if first_move not in allowed:
            continue
        walk = walks.get(cell)
        if walk is None:
            walk = walks[cell] = _walk_stride(step, cell, flat, goal)
        cells, wall = walk
        if 0 <= wall < room:
            reach = max(reach, wall + 1)
            continue
        if len(cells) > room:
            cells = cells[:room]
        reach = max(reach, len(cells))
        cand.append(macro_id)
        ends.append(cells[-1])
        depths.append(len(cells))
        strides.append((cells, flat))
    if not strides:
        return allowed, atomic_ends, None, None, reach
    return tuple(cand), tuple(ends), tuple(depths), tuple(strides), reach


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
    move_table: MoveTable | None = None,
    macro_table: MacroTable | None = None,
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
    candidate takes it unscored, since a one-entry distribution selects
    it whatever its score, and advances the generator as the three
    random() calls of a scored candidate would (two for alignment, one
    for the selection).  While no macro is live, such a step begins a
    corridor: the forced steps after it are taken with it in one go (see
    _corridor), cut to the path-length cap, and the generator advances by
    getrandbits(192 * steps), which consumes the 6 * steps 32-bit outputs
    that 3 * steps random() calls would.  Likewise, a standard step where
    neither the personal nor the swarm best sits on a candidate's end
    cell passes its 2 * candidates alignment variates over with
    getrandbits(128 * candidates): each of their terms is then c * r * 0,
    the same float whatever r.  If the previous path is not on one either,
    the step's scores depend on its (cell, entry cell) alone, and it
    selects with bisect_right over the running sums of its law (see
    softmax_floor_sums), the same floats softmax_floor_choice would
    compare with the same one random() variate.  Construction stops at
    the goal or at the path-length cap, the domain's
    default_max_path_len.

    Three caches, each keyed on what a step reads, none cut to a budget:
    - stride_memo keeps each macro stride walked from a cell, uncapped,
      so that it is walked once per memo; each step cuts it to the
      remaining budget.
    - move_table keeps the atomic candidates of a step, keyed by the cell
      and the cell it was entered from (see MoveTable), so that each such
      pair is read from the step table once per table; while only atomic
      moves compete, every candidate ends at the next depth, and each
      reference path is read there once per step.  Its entry also keeps,
      uncapped, the corridor a step begins, once one is taken, and the
      law of a standard step no reference path meets, checked against
      this call's heuristic weight, unmet alignment terms and epsilon
      before each use and rebuilt when they differ.
    - macro_table keeps, for the live-macro set keyed on each macro's id
      and flattened form, a step's candidates with the macros joined, per
      (cell, entry cell) (see MacroTable); a step uses them while its
      remaining budget reaches the entry's reach, and nearer the cap
      tests each live macro against the budget.  A call with another
      live-macro set drops what the table holds.
    All three assume the domain's step table, heuristic and goal stay as
    they are while they live: share one only between calls on one domain
    (None: a fresh one for this call).
    """
    check_range("exploration floor", epsilon, 0, 1, open_low=True, open_high=True)
    step = domain.step_table
    heuristic = domain.heuristic
    goal = domain.goal_index
    max_len = domain.default_max_path_len
    n_cells = len(step) >> 2
    if move_table is None:
        move_table = {}

    macro_info = []
    if model is not None:
        if stride_memo is None:
            stride_memo = {}
        for macro in model.macros:
            if not macro.pruned:
                flat = tuple(model.flatten_macro(macro.id))
                macro_info.append((macro.id, flat[0], flat, stride_memo.setdefault(flat, {})))
    if macro_info:
        if macro_table is None:
            macro_table = {}
        live = tuple((macro_id, flat) for macro_id, _, flat, _ in macro_info)
        joined = macro_table.get(live)
        if joined is None:
            macro_table.clear()
            joined = macro_table[live] = {}

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
    rand, getrandbits = rng.random, rng.getrandbits
    # An alignment term that is not met, c * r * 0 for a variate r in
    # [0, 1): 0.0, -0.0 for c = -0.0, NaN for c = inf, the same for any r.
    # A cached law holds for the terms and epsilon it was built from.
    w_unmet = w * False
    c1_unmet = c1 * 0.5 * False
    c2_unmet = c2 * 0.5 * False
    law_key = (alpha, w_unmet, c1_unmet, c2_unmet, epsilon)

    cur = domain.start_index
    prev_cell = -1
    prev_op: int | None = None
    states = [cur]
    ops: list[int] = []
    moves: list[int] = []
    steps = 0

    terminate_at_dead_ends = params.dead_end_mode == "terminate"
    while cur != goal and steps < max_len:
        # Candidates: atomic moves in N,E,S,W order, then macros in id
        # order; each ends on a cell, at an index of the path being built.
        key = prev_cell * n_cells + cur
        try:
            cand, ends, dead_end, corridor, law = move_table[key]
        except KeyError:
            cand, ends, dead_end, corridor, law = move_table[key] = _step_moves(step, cur, prev_cell)
        if dead_end and (terminate_at_dead_ends or not cand):
            break
        n_moves = len(cand)
        if n_moves == 1 and not macro_info:
            # A corridor: its forced steps at once, up to the cap.
            if corridor is None:
                corridor = _corridor(step, move_table, cur, prev_cell, goal)
                move_table[key] = (cand, ends, dead_end, corridor, law)
            run, cells = corridor
            taken = len(run)
            if taken > max_len - steps:
                taken = max_len - steps
                run, cells = run[:taken], cells[:taken]
            getrandbits(192 * taken)
            moves += run
            ops += run
            states += cells
            steps += taken
            prev_op = run[-1]
            prev_cell = states[-2]
            cur = cells[-1]
            continue

        strides = None  # (cells, flat) per macro, once one joins
        if macro_info:
            try:
                joined_moves = joined[key]
            except KeyError:
                joined_moves = joined[key] = _macro_moves(
                    step, cur, cand, ends, macro_info, goal, math.inf
                )
            room = max_len - steps
            if room < joined_moves[4]:
                # Near the cap a stride may be cut to the budget, and a
                # wall beyond it no longer drops its macro.
                joined_moves = _macro_moves(step, cur, cand, ends, macro_info, goal, room)
            if joined_moves[3] is not None:
                cand, ends, depths, strides, _ = joined_moves

        if n_moves == 1 and strides is None:
            # A lone candidate is an atomic move (a macro competes only
            # beside its first move), and any score selects it: only the
            # two alignment variates and the selection variate remain.
            rand()
            rand()
            rand()
            pick = 0
        elif strides is not None:
            # A macro's candidate ends at its own depth.  A bool counts as
            # 1 or 0: the alignment terms are coefficient * 1.0 or
            # coefficient * 0.0, as a 0/1 float would.  Each score is
            # (((heuristic + inertia) + cognitive) + social), plus the
            # learned term in guided mode, its two variates drawn in that
            # order.  Each kind of step has its own loop: a macro's depth,
            # or the learned term, costs nothing where it cannot occur.
            if prev_op is None:
                learned = repeat((None, 1.0 / len(cand)))
            else:
                learned = model.floored_distribution(prev_op, cand)
            scores = [
                alpha * heuristic[end]
                + w * (at < n_prev and prev_states[at] == end)
                + c1 * rand() * (at < n_pbest and pbest_states[at] == end)
                + c2 * rand() * (at < n_gbest and gbest_states[at] == end)
                + lam * p
                for end, at, (_, p) in zip(ends, map(steps.__add__, depths), learned)
            ]
            pick = softmax_floor_choice(scores, epsilon, rng)
        else:
            # Atomic moves all end at the next depth: each reference path
            # is read once, its cell there or -1 (no cell) past its end.
            at = steps + 1
            on_prev = prev_states[at] if at < n_prev else -1
            on_pbest = pbest_states[at] if at < n_pbest else -1
            on_gbest = gbest_states[at] if at < n_gbest else -1
            if guided:
                if prev_op is None:
                    learned = repeat((None, 1.0 / n_moves))
                else:
                    learned = model.floored_distribution(prev_op, cand)
                scores = [
                    alpha * heuristic[end]
                    + w * (on_prev == end)
                    + c1 * rand() * (on_pbest == end)
                    + c2 * rand() * (on_gbest == end)
                    + lam * p
                    for end, (_, p) in zip(ends, learned)
                ]
                pick = softmax_floor_choice(scores, epsilon, rng)
            elif on_pbest in ends or on_gbest in ends:
                scores = [
                    alpha * heuristic[end]
                    + w * (on_prev == end)
                    + c1 * rand() * (on_pbest == end)
                    + c2 * rand() * (on_gbest == end)
                    for end in ends
                ]
                pick = softmax_floor_choice(scores, epsilon, rng)
            else:
                # Neither best meets a candidate: their terms read
                # c1 * r1 * 0 and c2 * r2 * 0, whatever the variates, so
                # these are passed over in one call.
                getrandbits(128 * n_moves)
                if on_prev in ends:
                    scores = [
                        alpha * heuristic[end] + w * (on_prev == end) + c1_unmet + c2_unmet
                        for end in ends
                    ]
                    pick = softmax_floor_choice(scores, epsilon, rng)
                else:
                    # No reference path meets a candidate: the law is the
                    # (cell, entry cell)'s, built once for these terms.
                    if law is None or law[0] != law_key:
                        scores = [
                            alpha * heuristic[end] + w_unmet + c1_unmet + c2_unmet
                            for end in ends
                        ]
                        law = (law_key, softmax_floor_sums(scores, epsilon))
                        move_table[key] = (cand, ends, dead_end, corridor, law)
                    pick = bisect_right(law[1], rand())
        op = cand[pick]
        if pick < n_moves:
            moves.append(op)
            ops.append(op)
            prev_op = op
            prev_cell = cur
            cur = ends[pick]
            states.append(cur)
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


@dataclass
class PsoState:
    """One swarm run: its particles, its swarm best, and what its steps
    have read of its one domain so far.
    - stride_memo holds the macro strides walked from each cell, keyed on
      the macro's flattened form.
    - move_table holds the atomic candidates of a step for each (cell,
      entry cell) met, under the key entry cell * cells + cell (see
      MoveTable), each read from the step table the first time a step
      enters the cell from that entry cell; the corridor of forced steps
      each one begins, built the first time a step with one candidate is
      taken there with no macro live; and the law of a standard step that
      no reference path meets, built the first time one is scored there
      and rebuilt only if a later one has other coefficients or epsilon.
    - macro_table holds, for the run's current live-macro set, each such
      step's candidates with the macros joined (see MacroTable), built
      the first time a guided step is taken there; the first call after
      an abstraction or a prune changes the set drops them all.
    All three live exactly as long as the state: nothing outlives the
    run."""

    swarm: list[Particle]
    gbest: Trajectory | None = None
    stride_memo: StrideMemo = field(default_factory=dict)
    move_table: MoveTable = field(default_factory=dict)
    macro_table: MacroTable = field(default_factory=dict)


class PsoExplorer:
    def __init__(self, params: PsoParams | None = None):
        self.params = params or PsoParams()
        self.params.validate()

    def check_domain(self, domain) -> None:
        needed = ["step_table", "heuristic", "start_index", "goal_index", "evaluate_path",
                  "default_max_path_len"]
        missing = [a for a in needed if not hasattr(domain, a)]
        if missing:
            raise ConfigError(
                f"domain {type(domain).__name__} does not expose a stepwise path "
                f"interface: no {', '.join(missing)}"
            )

    def initialize(self, domain, config: ExperimentConfig, rng: random.Random) -> PsoState:
        return PsoState(swarm=[Particle() for _ in range(config.population_size)])

    def run_generation(
        self,
        state: PsoState,
        model: GcaModel | None,
        domain,
        config: ExperimentConfig,
        rng: random.Random,
    ) -> GenerationResult:
        """One sweep: every particle rebuilds its path against the entering
        swarm best; personal-best improvements emit reinforcement events; the
        swarm best is recomputed afterwards (ties keep the lowest index).
        The particles share the state's stride_memo, move_table and
        macro_table.  An empty swarm raises DomainError before any variate
        is drawn."""
        swarm = state.swarm
        if not swarm:
            raise DomainError("swarm generation over an empty swarm")
        new_paths: list[Trajectory] = []
        events: list[TrajectoryEvent] = []
        for particle in swarm:
            traj = construct_path(
                particle, state.gbest, self.params, model, domain, rng,
                config.gca.exploration_floor,
                stride_memo=state.stride_memo, move_table=state.move_table,
                macro_table=state.macro_table,
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
        state.gbest = best.pbest
        return GenerationResult(new_paths, events)
