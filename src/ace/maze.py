"""Grid-maze world: procedural generation, an integer step table,
trajectory execution and scoring, plus a breadth-first shortest-path
oracle."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError, InternalError, check_range
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
    def step_table(self) -> list[int]:
        """The step table every walker reads: step_table[4 * cell + move]
        is the cell index (y * width + x) that move reaches from cell, or
        -1 where a wall or the border blocks it."""
        w, h = self.width, self.height
        table = [-1] * (4 * w * h)
        for y in range(h):
            for x in range(w):
                for move, (dx, dy) in enumerate(MOVE_DELTAS):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < w and 0 <= ny < h and self.is_open((x, y), (nx, ny)):
                        table[4 * (y * w + x) + move] = ny * w + nx
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


# Cells in one maze, capped so that a mistyped side fails when checked
# instead of building its tables; the shipped mazes have 225.
MAX_MAZE_CELLS = 250_000
# Steps in one constructed path, capped for a suite's maze path_slack so
# that a mistyped budget fails when checked instead of walking without
# end.  The default, 2 x cells, stays below it.
MAX_PATH_LEN = 1_000_000


def check_maze_shape(width: int, height: int, connectivity: float) -> None:
    """Raise ConfigError unless both sides are >= 2, the maze has at most
    MAX_MAZE_CELLS cells and connectivity lies in [0, 1]."""
    if not (width >= 2 and height >= 2):
        raise ConfigError(f"maze dimensions must be >= 2, got {width}x{height}")
    if width * height > MAX_MAZE_CELLS:
        raise ConfigError(f"maze {width}x{height} has over {MAX_MAZE_CELLS} cells")
    check_range("connectivity", connectivity, 0, 1)


def check_maze_options(*, path_slack: int | None = None) -> None:
    """Raise ConfigError unless path_slack, unless None, lies in
    0..MAX_PATH_LEN.  The constructor and the suite parser both call it."""
    if path_slack is not None:
        check_range("path_slack", path_slack, 0, MAX_PATH_LEN)


def genome_bounds(width: int, height: int) -> tuple[int, int]:
    """The default genome lengths over a width x height maze: 1 up to
    four moves per cell."""
    return (1, 4 * width * height)


def generate_maze(width: int, height: int, connectivity: float, seed: int) -> Maze:
    """Depth-first carved spanning tree, then a connectivity fraction of
    the remaining closed walls opened uniformly at random.  Deterministic
    per seed; start is the top-left cell and goal the bottom-right."""
    check_maze_shape(width, height, connectivity)
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
    step = maze.step_table
    start = maze.index(maze.start)
    goal = maze.index(maze.goal)
    prev = {start: (start, -1)}
    q = deque([start])
    while q:
        cell = q.popleft()
        if cell == goal:
            break
        for move in range(4):
            nxt = step[4 * cell + move]
            if nxt >= 0 and nxt not in prev:
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


# -- text rendering --------------------------------------------------------


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


# -- loop-facing adapter ----------------------------------------------------

# The scoring rule's terms: a success earns SUCCESS_BASE less STEP_COST
# per step, a failure FAILURE_SCALE times its progress toward the goal,
# and both lose WALL_COST per wall hit.
SUCCESS_BASE = 10000.0
STEP_COST = 10.0
WALL_COST = 2.0
FAILURE_SCALE = 5000.0


class MazeDomain:
    """Binds a maze to the explorer interfaces: a four-move atomic
    vocabulary for sequence genomes, and the maze's indexed step table
    with a goal-distance heuristic for stepwise path construction.
    Sequences are walked on that table, paths arrive already walked on
    it, and both are scored by one rule."""

    atomic_op_names = list(MOVE_NAMES)
    atomic_count = len(MOVE_NAMES)
    # Repeating a move is the domain's most basic structure (straight
    # corridors), so self-transitions stay in the valid relation.
    transition_mask_mode = "all"

    def __init__(self, maze: Maze, *, path_slack: int | None = None):
        check_maze_options(path_slack=path_slack)
        self.maze = maze
        w, h = maze.width, maze.height
        self.start_index = maze.index(maze.start)
        self.goal_index = maze.index(maze.goal)
        self.default_genome_bounds = genome_bounds(w, h)
        self.shortest_path_len, _ = bfs_shortest_path(maze)
        if path_slack is not None:
            # Step budget = this instance's shortest path plus a fixed
            # error allowance; longer optimal routes then offer more
            # chances to waste it, which is what makes sparse mazes hard.
            self.default_max_path_len = self.shortest_path_len + path_slack
        else:
            self.default_max_path_len = 2 * w * h

        self.step_table = maze.step_table

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
            f = SUCCESS_BASE - STEP_COST * steps - WALL_COST * wall_hits
        else:
            f = FAILURE_SCALE * self.heuristic[states[-1]] - WALL_COST * wall_hits
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
        step = self.step_table
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
        """Score a wall-free path already walked on the step table."""
        return self._score(ops, atomic_moves, states, success, 0)
