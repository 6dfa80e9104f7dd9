from __future__ import annotations


import math

import pytest

from ace.errors import ConfigError, ParseError
from ace.loop import path_efficiency
from ace.maze import (
    MAX_MAZE_CELLS,
    Maze,
    MazeDomain,
    bfs_shortest_path,
    check_maze_shape,
    generate_maze,
    manhattan,
    maze_from_text,
    maze_to_text,
)
from ace.pso import MAX_PATH_LEN

N, E, S, W = 0, 1, 2, 3


def corridor(n):
    """1 x n corridor built by hand (the generator requires >= 2x2)."""
    edges = {((x, 0), (x + 1, 0)) for x in range(n - 1)}
    return Maze(n, 1, (0, 0), (n - 1, 0), 0.0, 0, edges)


def exits(maze, cell):
    """The step table's N, E, S, W entries for one cell index."""
    return maze.step_table[4 * cell:4 * cell + 4]


def reachable_cells(maze):
    seen = {maze.index(maze.start)}
    stack = list(seen)
    while stack:
        cell = stack.pop()
        for nxt in exits(maze, cell):
            if nxt >= 0 and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def walk(maze, moves):
    return MazeDomain(maze).evaluate_sequence(list(moves), list(moves))


# -- generation -------------------------------------------------------------


def test_perfect_maze_is_spanning_tree():
    m = generate_maze(15, 15, 0.0, 3)
    assert len(m.open_edges) == 15 * 15 - 1
    assert len(reachable_cells(m)) == 15 * 15


def test_full_connectivity_opens_everything():
    m = generate_maze(15, 15, 1.0, 3)
    assert len(m.open_edges) == len(m.all_interior_edges())


def test_partial_connectivity_edge_count():
    tree = generate_maze(15, 15, 0.0, 12345)
    closed = len(tree.all_interior_edges()) - len(tree.open_edges)
    m = generate_maze(15, 15, 0.3, 12345)
    assert len(m.open_edges) == 224 + int(0.3 * closed)


def test_generation_deterministic():
    a = generate_maze(9, 9, 0.3, 42)
    b = generate_maze(9, 9, 0.3, 42)
    assert a.open_edges == b.open_edges
    c = generate_maze(9, 9, 0.3, 43)
    assert c.open_edges != a.open_edges


def test_connectivity_monotone_in_open_edges():
    counts = [
        len(generate_maze(11, 11, conn, 5).open_edges)
        for conn in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert counts == sorted(counts)


def test_generator_validates_arguments():
    with pytest.raises(ConfigError):
        generate_maze(1, 5, 0.0, 0)
    with pytest.raises(ConfigError):
        generate_maze(5, 5, 1.5, 0)
    with pytest.raises(ConfigError, match=f"over {MAX_MAZE_CELLS} cells"):
        generate_maze(100_000, 100_000, 0.0, 0)  # rejected before any table is built
    check_maze_shape(2, MAX_MAZE_CELLS // 2, 0.5)  # the cap itself is admitted
    with pytest.raises(ConfigError, match=f"over {MAX_MAZE_CELLS} cells"):
        check_maze_shape(2, MAX_MAZE_CELLS // 2 + 1, 0.5)


@pytest.mark.parametrize(
    "keywords",
    [{"path_slack": -1}, {"path_slack": math.nan}, {"path_slack": math.inf},
     {"path_slack": -math.inf}, {"path_slack": -5}, {"path_slack": MAX_PATH_LEN + 1}],
)
def test_domain_rejects_out_of_range_keywords(keywords):
    # path_slack -5 would give a 5x5 maze a step budget below its shortest path
    [(name, _)] = keywords.items()
    with pytest.raises(ConfigError, match=f"{name} must"):
        MazeDomain(generate_maze(5, 5, 0.3, 1), **keywords)


# -- neighbors ----------------------------------------------------------------


def test_neighbors_full_grid_order():
    m = generate_maze(5, 5, 1.0, 1)
    assert exits(m, m.index((2, 2))) == [
        m.index((2, 1)),
        m.index((3, 2)),
        m.index((2, 3)),
        m.index((1, 2)),
    ]
    assert exits(m, 0) == [-1, 1, 5, -1]


def test_neighbors_match_rendered_walls():
    m = generate_maze(5, 5, 0.0, 7)
    text = maze_to_text(m)
    lines = text.splitlines()
    for move, cell in enumerate(exits(m, 0)):
        if cell < 0:
            continue
        if move == E:
            assert lines[2][3] == " "  # no wall between (0,0) and (1,0)
        if move == S:
            assert lines[3][1] == " "


def test_neighbors_out_of_bounds():
    # every move in the table stays on the grid, even with all walls open
    m = generate_maze(4, 4, 1.0, 1)
    assert len(m.step_table) == 4 * 16
    for cell in range(16):
        x, y = cell % 4, cell // 4
        moves = {move for move, nxt in enumerate(exits(m, cell)) if nxt >= 0}
        assert (N in moves) == (y > 0) and (S in moves) == (y < 3)
        assert (W in moves) == (x > 0) and (E in moves) == (x < 3)
    assert all(-1 <= nxt < 16 for nxt in m.step_table)


def test_corner_of_perfect_maze_has_single_opening():
    m = corridor(5)
    assert exits(m, 0) == [-1, 1, -1, -1]


@pytest.mark.parametrize("width, height, connectivity, seed", [
    (7, 5, 0.0, 1), (5, 7, 0.3, 2), (6, 6, 1.0, 3), (9, 4, 0.6, 4),
])
def test_step_table_agrees_with_open_edges(width, height, connectivity, seed):
    m = generate_maze(width, height, connectivity, seed)
    deltas = {N: (0, -1), E: (1, 0), S: (0, 1), W: (-1, 0)}
    for y in range(height):
        for x in range(width):
            for move, (dx, dy) in deltas.items():
                other = (x + dx, y + dy)
                is_open = tuple(sorted([(x, y), other])) in m.open_edges
                expected = other[1] * width + other[0] if is_open else -1
                assert m.step_table[4 * (y * width + x) + move] == expected
    # every open edge is walkable both ways, and nothing else is
    assert sum(nxt >= 0 for nxt in m.step_table) == 2 * len(m.open_edges)


# -- execution ----------------------------------------------------------------


def test_empty_sequence():
    m = generate_maze(4, 4, 1.0, 1)
    traj = walk(m, [])
    assert traj.states == [0]
    assert not traj.success
    trivial = Maze(2, 2, (0, 0), (0, 0), 1.0, 0, {((0, 0), (1, 0))})
    assert walk(trivial, []).success


def test_straight_corridor():
    traj = walk(corridor(6), [E] * 5)
    assert traj.success and traj.steps_used == 5 and traj.wall_hits == 0


def test_wall_hits_are_skipped_and_counted():
    traj = walk(corridor(3), [N, E, S, E])
    assert traj.success
    assert traj.steps_used == 2
    assert traj.wall_hits == 2


def test_execution_stops_at_goal():
    traj = walk(corridor(3), [E, E, W, W])
    assert traj.success and traj.steps_used == 2
    assert traj.states == [0, 1, 2]


def test_bfs_move_list_executes_optimally():
    for seed in (2, 5, 9):
        m = generate_maze(5, 5, 0.0, seed)
        length, moves = bfs_shortest_path(m)
        dom = MazeDomain(m)
        traj = dom.evaluate_sequence(moves, moves)
        assert traj.success
        assert traj.steps_used == length
        assert path_efficiency(dom, traj) == 1.0


def test_sequence_and_path_evaluation_agree():
    # a wall-free walk scores the same whichever evaluator sees it
    m = generate_maze(7, 7, 0.3, 4)
    dom = MazeDomain(m)
    _, moves = bfs_shortest_path(m)
    for k in (len(moves), 5):
        seq = dom.evaluate_sequence(moves[:k], moves[:k])
        path = dom.evaluate_path(seq.states, moves[:k], moves[:k], seq.success)
        assert (path.fitness, path.success, path.steps_used) == (
            seq.fitness, seq.success, seq.steps_used,
        )


# -- fitness --------------------------------------------------------------------


def test_fitness_success_example():
    m = generate_maze(15, 15, 1.0, 1)
    assert walk(m, bfs_shortest_path(m)[1]).steps_used == 28
    twenty = generate_maze(11, 11, 1.0, 1)
    traj = walk(twenty, bfs_shortest_path(twenty)[1])
    assert traj.steps_used == 20
    assert traj.fitness == 9800.0


def test_fitness_no_progress_is_zero():
    m = generate_maze(8, 8, 0.0, 4)
    assert walk(m, []).fitness == 0.0


def test_fitness_half_distance():
    m = generate_maze(15, 15, 1.0, 1)
    d_init = manhattan(m.start, m.goal)
    mid = (7, 7)
    assert manhattan(mid, m.goal) * 2 == d_init
    traj = walk(m, [E] * 7 + [S] * 7)
    assert not traj.success and traj.states[-1] == m.index(mid)
    assert traj.fitness == 2500.0


def test_fitness_success_ordering():
    m = generate_maze(10, 10, 1.0, 1)
    # three wall hits, then k out-and-back detours before the shortest route
    f = []
    for k in (1, 6, 16):
        traj = walk(m, [N] * 3 + [S, N] * k + [E] * 9 + [S] * 9)
        assert traj.success and traj.wall_hits == 3 and traj.steps_used == 18 + 2 * k
        f.append(traj.fitness)
    assert f[0] > f[1] > f[2]


def test_path_efficiency_cases():
    m = corridor(5)
    dom = MazeDomain(m)
    optimal = dom.evaluate_sequence([E] * 4, [E] * 4)
    assert path_efficiency(dom, optimal) == 1.0
    wandering = dom.evaluate_sequence([], [E, W] * 2 + [E] * 4)
    assert wandering.steps_used == 8
    assert path_efficiency(dom, wandering) == pytest.approx(0.5)
    failed = dom.evaluate_sequence([E], [E])
    assert path_efficiency(dom, failed) is None


# -- shortest path ----------------------------------------------------------------


def test_bfs_open_2x2():
    m = Maze(
        2, 2, (0, 0), (1, 1), 1.0, 0,
        {((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1))},
    )
    length, moves = bfs_shortest_path(m)
    assert length == 2
    assert moves == [E, S]  # E before S in expansion order


def test_bfs_corridor():
    assert bfs_shortest_path(corridor(9))[0] == 8


def test_bfs_full_grid_is_manhattan():
    m = generate_maze(15, 15, 1.0, 77)
    assert bfs_shortest_path(m)[0] == 28


# -- text format ------------------------------------------------------------------


def test_text_round_trip():
    for conn, seed in ((0.0, 1), (0.3, 2), (1.0, 3)):
        m = generate_maze(7, 5, conn, seed)
        again = maze_from_text(maze_to_text(m))
        assert again.open_edges == m.open_edges
        assert (again.width, again.height) == (7, 5)
        assert again.start == m.start and again.goal == m.goal
        assert again.connectivity == conn and again.seed == seed


def test_text_parse_errors():
    with pytest.raises(ParseError):
        maze_from_text("")
    with pytest.raises(ParseError):
        maze_from_text("3 3 0 0 2 2 0.0\n")  # missing field
    m = generate_maze(3, 3, 0.0, 1)
    lines = maze_to_text(m).splitlines()
    truncated = "\n".join(lines[:3])
    with pytest.raises(ParseError):
        maze_from_text(truncated)
    # Shapes and endpoints generate_maze never makes; the header is
    # checked before any row is read, so the huge one allocates nothing.
    body = "\n".join(lines[1:])
    for header, match in (
        ("-1 -1 0 0 0 0 0.0 1", "dimensions"),
        ("3 3 0 0 2 2 5.0 1", "connectivity"),
        ("3 3 0 0 7 7 0.0 1", r"goal \(7, 7\) outside"),
        ("3 3 0 -1 2 2 0.0 1", r"start \(0, -1\) outside"),
        ("100000 100000 0 0 1 1 0.0 1", f"over {MAX_MAZE_CELLS} cells"),
    ):
        with pytest.raises(ParseError, match=match):
            maze_from_text(header + "\n" + body)
    with pytest.raises(ParseError, match="dimensions"):
        maze_from_text("1 1 0 0 0 0 0.0 1\n+--+\n|S |\n+--+\n")
    short_bottom = "\n".join(lines[:-1] + ["+--"])
    with pytest.raises(ParseError, match="bottom border"):
        maze_from_text(short_bottom)


def test_text_rejects_open_border():
    m = generate_maze(3, 3, 1.0, 1)
    lines = maze_to_text(m).splitlines()
    lines[1] = "+  " + lines[1][3:]
    with pytest.raises(ParseError, match="border"):
        maze_from_text("\n".join(lines))


# -- domain adapter -----------------------------------------------------------------


def test_domain_tables_match_maze():
    m = generate_maze(6, 6, 0.3, 11)
    dom = MazeDomain(m)
    assert dom.atomic_op_names == ["N", "E", "S", "W"]
    steps = {N: (0, -1), E: (1, 0), S: (0, 1), W: (-1, 0)}
    for y in range(6):
        for x in range(6):
            expected = [
                (y + dy) * 6 + x + dx
                if 0 <= x + dx < 6 and 0 <= y + dy < 6 and m.is_open((x, y), (x + dx, y + dy))
                else -1
                for mv, (dx, dy) in steps.items()
            ]
            assert exits(dom, y * 6 + x) == expected
    assert dom.heuristic[dom.goal_index] == 1.0
    assert dom.heuristic[dom.start_index] == 0.0


def test_domain_path_budget():
    m = generate_maze(8, 8, 0.0, 3)
    assert MazeDomain(m).default_max_path_len == 2 * 64
    dom = MazeDomain(m, path_slack=6)
    assert dom.default_max_path_len == bfs_shortest_path(m)[0] + 6


def test_domain_evaluates_sequences():
    m = corridor(4)
    dom = MazeDomain(m)
    traj = dom.evaluate_sequence([E, E, E], [E, E, E])
    assert traj.success and traj.fitness == 10000 - 30
    assert traj.states == [0, 1, 2, 3]
    assert path_efficiency(dom, traj) == 1.0
