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
import weakref
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
    # What happens when the only way out is the cell just departed: the
    # walk ends there ("terminate", the one rule).
    dead_end_mode: str = "terminate"

    def validate(self) -> None:
        for name in ("inertia", "cognitive", "social", "heuristic_weight", "guidance_weight"):
            check_range(name, getattr(self, name), 0, math.inf, open_high=True)
        if self.dead_end_mode != "terminate":
            raise ConfigError(f"dead_end_mode {self.dead_end_mode!r}: only 'terminate' is supported")


@dataclass
class Particle:
    current: Trajectory | None = None
    pbest: Trajectory | None = None


def _reference_states(traj: Trajectory | None) -> list[int] | tuple:
    return traj.states or () if traj is not None else ()


# A corridor: the moves of a run of forced steps and the cells they reach.
Corridor = tuple[tuple[int, ...], tuple[int, ...]]

# A cached selection law: (terms, sums) (see PsoState).
Law = tuple[tuple[float, float, float, float, float], list[float]]

# (cell, entry cell) key -> (moves, ends, corridor, law) (see PsoState).
MoveTable = dict[int, tuple[tuple[int, ...], tuple[int, ...], Corridor | None, Law | None]]

# A step's candidates with the live macros joined: (cand, ends, depths,
# strides, reach, walks) (see PsoState).
MacroMoves = tuple[
    tuple[int, ...], tuple[int, ...], tuple[int, ...],
    tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], int,
    tuple[tuple[int, tuple[int, ...], tuple[int, ...], int], ...],
]

# GcaModel.live_macros() -> (cell, entry cell) key -> MacroMoves.
MacroTable = dict[tuple[tuple[int, tuple[int, ...]], ...], dict[int, MacroMoves]]


def _step_moves(step: list[int], cell: int, entry: int):
    """A move-table entry: the atomic candidates of a step at cell
    entered from entry, none at a dead end, its corridor and law not yet
    known."""
    ways = step[4 * cell:4 * cell + 4]
    moves = tuple(m for m in (0, 1, 2, 3) if ways[m] != entry and ways[m] >= 0)
    return moves, tuple(ways[m] for m in moves), None, None


def _corridor(step: list[int], move_table: MoveTable, cell: int, entry: int, goal: int) -> Corridor:
    """The corridor from cell entered from entry, whose step (stored in
    move_table) has one candidate: the moves and the cells reached of that
    step and of each forced step after it, up to the goal.  It ends before
    a step without exactly one candidate (a dead end has none) or a (cell,
    entry cell) already in it.  Steps past the first are read without
    being stored, as a walk cut short would not have met them."""
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
        cand, ends, *_ = move_table.get(key) or _step_moves(step, cell, entry)
        if len(cand) != 1:
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


def _macro_moves(cand, ends, walks, room: float) -> MacroMoves:
    """The MacroMoves of a step with atomic candidates cand ending at ends,
    the walks of its live macros and room steps left: each walked macro
    joins, its stride cut to room, unless it meets a wall within room;
    reach is the smallest budget that holds each joined stride and each
    such wall (the move into it included)."""
    cand, ends, depths, strides, reach = list(cand), list(ends), [1] * len(cand), [], 1
    for macro_id, flat, cells, wall in walks:
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
    return tuple(cand), tuple(ends), tuple(depths), tuple(strides), reach, walks


def construct_path(
    particle: Particle,
    state: PsoState,
    params: PsoParams,
    model: GcaModel | None,
    domain,
    rng: random.Random,
    epsilon: float,
) -> Trajectory:
    """Build one path from the start, step by step, against the swarm
    best and through the two tables of state (see PsoState), which it
    fills as it goes; what they already hold changes no path.

    At each node the candidates are the valid moves but the one back to
    the cell just left and, in guided mode, the unpruned macros whose
    first move is among them.  A macro's flattened stride is walked in
    simulation first: any wall along it drops the macro from this step's
    candidate set (which leaves the same selection distribution as
    sampling it, rejecting, and redrawing without it, since scores are
    unaffected).  epsilon is the run's exploration floor for the
    candidate selection; it must lie in (0, 1), which is checked before
    any variate is drawn.  Each step takes one of four paths:
    - Forced: one move and no macro joined.  A one-entry distribution
      selects it whatever its score, so it is taken unscored.  While no
      macro is live it begins a corridor: the forced steps after it are
      taken with it in one go (see _corridor), cut to the path-length
      cap.  Either way the generator advances by getrandbits(192 *
      steps), which consumes the 6 * steps 32-bit outputs that the 3 *
      steps random() calls of scoring would (two alignment variates and
      one selection variate per step).
    - Guided, scored: each candidate is scored at the cell it reaches,
      with alignment checked at the path depth it ends on (a macro's
      stride, a move one step), plus its learned transition
      probability: the floored probability of the candidate among this
      step's candidates, conditioned on the op that entered the node
      (uniform at the path start).
    - Standard, met: some reference path (the previous path, the
      personal or the swarm best) sits on a candidate's end cell; each
      candidate draws its two alignment variates and the step selects
      through softmax_floor_choice.
    - Standard, unmet: no reference path sits on a candidate's end cell,
      so each alignment term is c * r * 0, the same float whatever r: its
      2 * candidates alignment variates are passed over with
      getrandbits(128 * candidates), its scores depend on its (cell,
      entry cell) alone, and it selects with bisect_right over the
      running sums of its law (see softmax_floor_sums), the same floats
      softmax_floor_choice would compare with the same one random()
      variate.
    Construction stops at the goal, at a dead end (a cell whose only way
    out is back) or at the path-length cap, the domain's
    default_max_path_len.
    """
    check_range("exploration floor", epsilon, 0, 1, open_low=True, open_high=True)
    step = domain.step_table
    heuristic = domain.heuristic
    goal = domain.goal_index
    max_len = domain.default_max_path_len
    n_cells = len(step) >> 2
    move_table = state.move_table

    live = () if model is None else model.live_macros()
    if live:
        joined = state.macro_table.get(live)
        if joined is None:
            state.macro_table.clear()
            joined = state.macro_table[live] = {}

    # A candidate aligns with a reference path when that path sits on the
    # candidate's end cell at the same depth.
    prev_states = _reference_states(particle.current)
    pbest_states = _reference_states(particle.pbest)
    gbest_states = _reference_states(state.gbest)
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

    # Without a live macro every candidate is a move, one step deep.
    depths, strides = repeat(1), ()
    while cur != goal and steps < max_len:
        # Candidates: atomic moves in N,E,S,W order, then macros in id
        # order; each ends on a cell, at an index of the path being built.
        key = prev_cell * n_cells + cur
        try:
            cand, ends, corridor, law = move_table[key]
        except KeyError:
            cand, ends, corridor, law = move_table[key] = _step_moves(step, cur, prev_cell)
        if not cand:
            break
        n_moves = len(cand)
        if live:
            try:
                joined_moves = joined[key]
            except KeyError:
                walks = tuple(
                    (macro_id, flat, *_walk_stride(step, cur, flat, goal))
                    for macro_id, flat in live if flat[0] in cand
                )
                joined_moves = joined[key] = _macro_moves(cand, ends, walks, math.inf)
            room = max_len - steps
            if room < joined_moves[4]:
                # Near the cap a stride may be cut to the budget, and a
                # wall beyond it no longer drops its macro.
                joined_moves = _macro_moves(cand, ends, joined_moves[5], room)
            cand, ends, depths, strides, _, _ = joined_moves

        if n_moves == 1 and not strides:
            # A forced step: any score selects its one atomic move (a
            # macro competes only beside its first move).  With no macro
            # live it begins a corridor, taken at once up to the cap.
            if live:
                run, cells = cand, ends
            else:
                if corridor is None:
                    corridor = _corridor(step, move_table, cur, prev_cell, goal)
                    move_table[key] = (cand, ends, corridor, law)
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

        if guided:
            # Each candidate ends at its own depth (1 for a move).  A bool
            # counts as 1 or 0: the alignment terms are coefficient * 1.0
            # or coefficient * 0.0, as a 0/1 float would.  Each score is
            # (((heuristic + inertia) + cognitive) + social) + learned,
            # its two variates drawn in that order.
            if prev_op is None:
                learned = repeat(1.0 / len(cand))
            else:
                learned = model.floored_distribution(prev_op, cand)
            scores = [
                alpha * heuristic[end]
                + w * (at < n_prev and prev_states[at] == end)
                + c1 * rand() * (at < n_pbest and pbest_states[at] == end)
                + c2 * rand() * (at < n_gbest and gbest_states[at] == end)
                + lam * p
                for end, at, p in zip(ends, map(steps.__add__, depths), learned)
            ]
            pick = softmax_floor_choice(scores, epsilon, rng)
        else:
            # Atomic moves all end at the next depth: each reference path
            # is read once, its cell there or -1 (no cell) past its end.
            at = steps + 1
            on_prev = prev_states[at] if at < n_prev else -1
            on_pbest = pbest_states[at] if at < n_pbest else -1
            on_gbest = gbest_states[at] if at < n_gbest else -1
            if on_prev in ends or on_pbest in ends or on_gbest in ends:
                scores = [
                    alpha * heuristic[end]
                    + w * (on_prev == end)
                    + c1 * rand() * (on_pbest == end)
                    + c2 * rand() * (on_gbest == end)
                    for end in ends
                ]
                pick = softmax_floor_choice(scores, epsilon, rng)
            else:
                # No reference path meets a candidate: every alignment term
                # reads c * 0 or c * r * 0, whatever the variates, so these
                # are passed over in one call, and the law is the (cell,
                # entry cell)'s, built once for these terms.
                getrandbits(128 * n_moves)
                if law is None or law[0] != law_key:
                    scores = [
                        alpha * heuristic[end] + w_unmet + c1_unmet + c2_unmet
                        for end in ends
                    ]
                    law = (law_key, softmax_floor_sums(scores, epsilon))
                    move_table[key] = (cand, ends, corridor, law)
                pick = bisect_right(law[1], rand())
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


@dataclass
class PsoState:
    """One swarm run: its particles, its swarm best, and two tables of
    what its steps have read of its one domain.  Each table is keyed on
    what a step reads and holds nothing cut to a step budget, so that its
    entries serve every particle and every budget; both assume that the
    domain's step table, heuristic and goal stay as they are.  The move
    table lives with its domain: PsoExplorer.initialize gives every run
    over one domain the same one (MOVE_TABLES), which no run's parameters
    bind (a law is replaced when its terms differ); a domain that cannot
    be hashed or weakly referenced gives each run a table of its own.
    The macro table and the particles live with the run, as each run's
    model has its own live macros.

    move_table holds an entry (moves, ends, corridor, law) for each (cell,
    entry cell) a step has met, under the key entry cell * cells + cell
    (entry cell -1 at the start), read from the step table the first time
    a step enters the cell from that entry cell.
    - moves are the step's atomic candidates in N, E, S, W order, every
      open move but the one back to the entry cell, and ends the cells
      they reach; at a dead end both are empty, and the walk ends there.
    - corridor is None until a forced step is taken there with no macro
      live; it then holds the corridor that step begins (see _corridor).
    - law is None until a standard, unmet step is taken there (see
      construct_path).  It then holds (terms, sums): terms are the
      step's (heuristic_weight, inertia term, cognitive term, social term,
      epsilon), where an alignment term no reference path meets reads
      c * 0 or c * r * 0, and sums are softmax_floor_sums of the scores
      they give the step's candidates.  A later such step reuses the law
      while its own terms are these, and replaces it otherwise.

    macro_table is keyed on the model's live-macro tuple
    (GcaModel.live_macros: ((id, flat), ...) in id order with flat the
    macro's atomic moves, one tuple until the vocabulary changes), and
    maps it to an entry (cand, ends, depths, strides, reach, walks) for
    each (cell, entry cell) a guided step has met, under the move
    table's key.
    - walks hold (id, flat, cells, wall) for each live macro whose first
      move is among the step's atomic moves, in id order: cells are those
      its stride walks from the cell until a wall or the goal, and wall
      is the index of the move into the wall (-1 if none).
    - cand holds the atomic moves, then each walked macro that meets no
      wall; ends the cells they reach, depths the steps each takes (1 for
      a move), and strides the (cells, flat) of each macro, () if none
      joins.
    - reach is the smallest budget that holds each joined stride and each
      wall (the move into it included).  A step whose remaining budget is
      at least reach takes these candidates; nearer the cap, a step joins
      the walks anew, each stride cut to its budget and no wall beyond it
      dropping its macro.
    It holds one live-macro set at a time: the first call after an
    abstraction or a prune changes the set drops what it holds."""

    swarm: list[Particle]
    gbest: Trajectory | None = None
    move_table: MoveTable = field(default_factory=dict)
    macro_table: MacroTable = field(default_factory=dict)


# Each domain's move table, shared by every run over it and dropped with
# the domain (see PsoState).
MOVE_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
        """A fresh swarm and macro table, and the domain's move table."""
        try:
            move_table = MOVE_TABLES.setdefault(domain, {})
        except TypeError:  # the domain cannot key MOVE_TABLES
            move_table = {}
        return PsoState(swarm=[Particle() for _ in range(config.population_size)],
                        move_table=move_table)

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
        The particles share the state's tables.  An empty swarm raises
        DomainError before any variate is drawn."""
        swarm = state.swarm
        if not swarm:
            raise DomainError("swarm generation over an empty swarm")
        new_paths: list[Trajectory] = []
        events: list[TrajectoryEvent] = []
        for particle in swarm:
            traj = construct_path(
                particle, state, self.params, model, domain, rng, config.gca.exploration_floor
            )
            new_paths.append(traj)
            particle.current = traj
            if particle.pbest is None:
                particle.pbest = traj
            elif traj.fitness > particle.pbest.fitness:
                events.append(TrajectoryEvent(traj.ops, traj.fitness - particle.pbest.fitness))
                particle.pbest = traj

        best = swarm[0]
        for particle in swarm[1:]:
            if particle.pbest.fitness > best.pbest.fitness:
                best = particle
        state.gbest = best.pbest
        return GenerationResult(new_paths, events)
