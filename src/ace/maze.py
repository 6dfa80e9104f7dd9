"""Grid-maze world: procedural generation, an integer move table,
trajectory execution and scoring, plus a breadth-first shortest-path
oracle."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError, InternalError, ParseError
from .loop import Trajectory

MOVE_NAMES = ("N", "E", "S", "W")
# (dx, dy) per move; y grows downward so N decreases y.
MOVE_DELTAS = ((0, -1), (1, 0), (0, 1), (-1, 0))

Cell = tuple[int, int]


def _edge(a: Cell, b: Cell) -> tuple[Cell, Cell]:
    return (a, b) if a <= b else (b, a)


@dataclass
class Maze:
    """Immutable grid with per-edge walls.  Border edges are implicit and
    always closed; open_edges holds the open interior cell pairs."""

    width: int
    height: int
    start: Cell
    goal: Cell
    connectivity: float
    seed: int
    open_edges: set[tuple[Cell, Cell]]

    def is_open(self, a: Cell, b: Cell) -> bool:
        return _edge(a, b) in self.open_edges

    def index(self, cell: Cell) -> int:
        return cell[1] * self.width + cell[0]

    @cached_property
    def neighbor_table(self) -> list[tuple[tuple[int, int], ...]]:
        """Open moves out of each cell index (y * width + x), as
        (move, cell index) pairs in N,E,S,W order."""
        w, h = self.width, self.height
        table = []
        for y in range(h):
            for x in range(w):
                table.append(tuple(
                    (move, (y + dy) * w + x + dx)
                    for move, (dx, dy) in enumerate(MOVE_DELTAS)
                    if 0 <= x + dx < w and 0 <= y + dy < h
                    and self.is_open((x, y), (x + dx, y + dy))
                ))
        return table

    def all_interior_edges(self) -> list[tuple[Cell, Cell]]:
        edges = []
        for y in range(self.height):
            for x in range(self.width):
                if x + 1 < self.width:
                    edges.append(((x, y), (x + 1, y)))
                if y + 1 < self.height:
                    edges.append(((x, y), (x, y + 1)))
        return edges


def generate_maze(width: int, height: int, connectivity: float, seed: int) -> Maze:
    """Depth-first carved spanning tree, then a connectivity fraction of
    the remaining closed walls opened uniformly at random.  Deterministic
    per seed; start is the top-left cell and goal the bottom-right."""
    if width < 2 or height < 2:
        raise ConfigError(f"maze dimensions must be >= 2, got {width}x{height}")
    if not 0.0 <= connectivity <= 1.0:
        raise ConfigError(f"connectivity must lie in [0, 1], got {connectivity}")
    rng = random.Random(seed)
    start = (0, 0)
    goal = (width - 1, height - 1)
    open_edges: set[tuple[Cell, Cell]] = set()
    visited = {start}
    stack = [start]
    while stack:
        x, y = stack[-1]
        options = []
        for dx, dy in MOVE_DELTAS:
            nxt = (x + dx, y + dy)
            if 0 <= nxt[0] < width and 0 <= nxt[1] < height and nxt not in visited:
                options.append(nxt)
        if not options:
            stack.pop()
            continue
        nxt = options[rng.randrange(len(options))]
        open_edges.add(_edge((x, y), nxt))
        visited.add(nxt)
        stack.append(nxt)

    maze = Maze(width, height, start, goal, connectivity, seed, open_edges)
    closed = sorted(e for e in maze.all_interior_edges() if e not in open_edges)
    extra = int(connectivity * len(closed))
    for e in rng.sample(closed, extra):
        open_edges.add(e)
    return maze


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def bfs_shortest_path(maze: Maze) -> tuple[int, list[int]]:
    """Minimal move count from start to goal plus one witness move list;
    ties resolve by N,E,S,W expansion order."""
    table = maze.neighbor_table
    start = maze.index(maze.start)
    goal = maze.index(maze.goal)
    prev = {start: (start, -1)}
    q = deque([start])
    while q:
        cell = q.popleft()
        if cell == goal:
            break
        for move, nxt in table[cell]:
            if nxt not in prev:
                prev[nxt] = (cell, move)
                q.append(nxt)
    if goal not in prev:
        raise InternalError("goal unreachable; maze generation guarantees connectivity")
    moves = []
    cell = goal
    while cell != start:
        cell, move = prev[cell]
        moves.append(move)
    moves.reverse()
    return len(moves), moves


# -- text format -----------------------------------------------------------


def maze_to_text(maze: Maze) -> str:
    """Header line with dimensions/endpoints/parameters, then the wall
    grid drawn with +--+ rows.  Start and goal cells are marked S and G."""
    sx, sy = maze.start
    gx, gy = maze.goal
    lines = [
        f"{maze.width} {maze.height} {sx} {sy} {gx} {gy} {maze.connectivity!r} {maze.seed}"
    ]
    for y in range(maze.height):
        top = []
        mid = []
        for x in range(maze.width):
            wall_n = y == 0 or not maze.is_open((x, y), (x, y - 1))
            top.append("+" + ("--" if wall_n else "  "))
            wall_w = x == 0 or not maze.is_open((x - 1, y), (x, y))
            content = "S " if (x, y) == maze.start else ("G " if (x, y) == maze.goal else "  ")
            mid.append(("|" if wall_w else " ") + content)
        lines.append("".join(top) + "+")
        lines.append("".join(mid) + "|")
    lines.append("+--" * maze.width + "+")
    return "\n".join(lines) + "\n"


def maze_from_text(text: str) -> Maze:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty maze document")
    head = lines[0].split()
    if len(head) != 8:
        raise ParseError(f"header must have 8 fields, got {len(head)}")
    try:
        width, height, sx, sy, gx, gy = (int(v) for v in head[:6])
        connectivity = float(head[6])
        seed = int(head[7])
    except ValueError as e:
        raise ParseError(f"malformed header: {e}") from e
    expected = 1 + 2 * height + 1
    if len(lines) < expected:
        raise ParseError(f"expected {expected} lines for a {width}x{height} maze")
    open_edges: set[tuple[Cell, Cell]] = set()
    for y in range(height):
        top = lines[1 + 2 * y]
        mid = lines[2 + 2 * y]
        if len(top) < 3 * width + 1 or len(mid) < 3 * width + 1:
            raise ParseError(f"row {y}: line too short")
        for x in range(width):
            if top[3 * x + 1] != "-":
                if y == 0:
                    raise ParseError(f"row {y}: border edge must be closed")
                open_edges.add(_edge((x, y), (x, y - 1)))
            if mid[3 * x] != "|":
                if x == 0:
                    raise ParseError(f"row {y}: border edge must be closed")
                open_edges.add(_edge((x - 1, y), (x, y)))
    bottom = lines[1 + 2 * height]
    for x in range(width):
        if bottom[3 * x + 1] != "-":
            raise ParseError("bottom border must be closed")
    return Maze(width, height, (sx, sy), (gx, gy), connectivity, seed, open_edges)


# -- loop-facing adapter ----------------------------------------------------


class MazeDomain:
    """Binds a maze to the explorer interfaces: a four-move atomic
    vocabulary for sequence genomes, and the maze's indexed move table
    with a goal-distance heuristic for stepwise path construction.
    Sequences are walked on that table, paths arrive already walked on
    it, and both are scored by one rule."""

    atomic_op_names = list(MOVE_NAMES)
    atomic_count = len(MOVE_NAMES)
    # Repeating a move is the domain's most basic structure (straight
    # corridors), so self-transitions stay in the valid relation.
    transition_mask_mode = "all"

    def __init__(
        self,
        maze: Maze,
        *,
        success_base: float = 10000.0,
        step_cost: float = 10.0,
        wall_cost: float = 2.0,
        failure_scale: float = 5000.0,
        path_slack: int | None = None,
    ):
        self.maze = maze
        self.success_base = success_base
        self.step_cost = step_cost
        self.wall_cost = wall_cost
        self.failure_scale = failure_scale
        w, h = maze.width, maze.height
        self.start_index = maze.index(maze.start)
        self.goal_index = maze.index(maze.goal)
        self.default_genome_bounds = (1, 4 * w * h)
        self.shortest_path_len, _ = bfs_shortest_path(maze)
        if path_slack is not None:
            # Step budget = this instance's shortest path plus a fixed
            # error allowance; longer optimal routes then offer more
            # chances to waste it, which is what makes sparse mazes hard.
            self.default_max_path_len = self.shortest_path_len + path_slack
        else:
            self.default_max_path_len = 2 * w * h

        self.neighbor_table = maze.neighbor_table
        # The same table keyed by cell * 4 + move; -1 marks a wall.
        self._step = [-1] * (4 * w * h)
        for cell, nbrs in enumerate(self.neighbor_table):
            for move, nxt in nbrs:
                self._step[4 * cell + move] = nxt

        # Fraction of the start-to-goal distance already covered; a
        # failed trajectory earns it as progress credit.
        d_init = manhattan(maze.start, maze.goal)
        self.heuristic: list[float] = []
        for y in range(h):
            for x in range(w):
                if d_init == 0:
                    self.heuristic.append(1.0)
                else:
                    v = 1.0 - manhattan((x, y), maze.goal) / d_init
                    self.heuristic.append(min(max(v, 0.0), 1.0))

    def _score(
        self,
        ops: list[int],
        atomic_moves: list[int],
        states: list[int],
        success: bool,
        wall_hits: int,
    ) -> Trajectory:
        """Successes earn the base minus step and wall penalties; failures
        earn credit for distance covered toward the goal.  Never negative."""
        steps = len(states) - 1
        if success:
            f = self.success_base - self.step_cost * steps - self.wall_cost * wall_hits
        else:
            f = self.failure_scale * self.heuristic[states[-1]] - self.wall_cost * wall_hits
        return Trajectory(
            ops=ops,
            atomic_ops=atomic_moves,
            fitness=max(f, 0.0),
            success=success,
            states=states,
            steps_used=steps,
            wall_hits=wall_hits,
        )

    def evaluate_sequence(self, ops: list[int], atomic_moves: list[int]) -> Trajectory:
        """Walk a move sequence from the start.  Blocked moves are skipped
        and counted as wall hits; execution stops at the goal."""
        step = self._step
        goal = self.goal_index
        cur = self.start_index
        states = [cur]
        hits = 0
        if cur != goal:
            for move in atomic_moves:
                nxt = step[4 * cur + move]
                if nxt < 0:
                    hits += 1
                    continue
                cur = nxt
                states.append(cur)
                if cur == goal:
                    break
        return self._score(ops, atomic_moves, states, cur == goal, hits)

    def evaluate_path(
        self, states: list[int], ops: list[int], atomic_moves: list[int], success: bool
    ) -> Trajectory:
        """Score a wall-free path already walked on the move table."""
        return self._score(ops, atomic_moves, states, success, 0)
