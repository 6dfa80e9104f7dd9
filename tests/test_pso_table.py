"""The swarm's move table: construct_path against the step loop it
replaced, and what the table holds and keeps after a run."""

from __future__ import annotations

import copy
import gc
import math
import random
import weakref

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import ace.pso as pso
from ace.loop import ExperimentConfig, Trajectory, run_ace, run_standard
from ace.maze import MazeDomain, generate_maze
from ace.pso import Particle, PsoExplorer, PsoParams, construct_path

from helpers import GridStub, make_model, reference_construct_path


@st.composite
def path_domains(draw):
    """A generated maze of sides 2-8, or an open GridStub grid with some
    moves knocked out (one-way edges, dead ends and closed cells)."""
    width, height = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    if draw(st.booleans()):
        connectivity = draw(st.floats(0.0, 1.0))
        return MazeDomain(generate_maze(width, height, connectivity, draw(st.integers(0, 99))))
    cells = width * height
    dom = GridStub(width, height, heuristic=draw(
        st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells)
    ))
    for slot in draw(st.lists(st.integers(0, 4 * cells - 1), max_size=cells)):
        dom.step_table[slot] = -1
    return dom


def trajectories(cells):
    """None, or a reference path over random cells."""
    states = st.lists(st.integers(0, cells - 1), max_size=2 * cells)
    return st.none() | states.map(
        lambda s: Trajectory(ops=[], atomic_ops=[], fitness=0.0, states=s)
    )


@st.composite
def path_models(draw):
    """None (standard mode), or a model with random weights and up to
    four macros, each live or pruned."""
    if draw(st.booleans()):
        return None
    pairs = st.tuples(st.integers(0, 3), st.integers(0, 3))
    model = make_model(weights=draw(st.dictionaries(pairs, st.floats(0.0, 3.0), max_size=8)))
    for left, right in draw(st.lists(pairs, max_size=4)):
        model.add_macro(left, right).pruned = draw(st.booleans())
    return model


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_construct_path_matches_the_reference_step_loop(data):
    dom = data.draw(path_domains())
    cells = len(dom.step_table) // 4
    model = data.draw(path_models())
    shared = data.draw(st.booleans())
    table, memo, ref_memo = {}, {}, {}
    for _ in range(data.draw(st.integers(1, 3))):
        params = PsoParams(
            heuristic_weight=data.draw(st.floats(0.0, 3.0)),
            guidance_weight=data.draw(st.floats(0.0, 3.0)),
            dead_end_mode=data.draw(st.sampled_from(["backtrack", "terminate"])),
        )
        # The same domain with its own step budget: the table and the
        # memos stay valid, as they hold nothing cut to a budget.
        capped = copy.copy(dom)
        capped.default_max_path_len = data.draw(st.integers(1, 2 * cells))
        particle = Particle(
            current=data.draw(trajectories(cells)), pbest=data.draw(trajectories(cells))
        )
        gbest = data.draw(trajectories(cells))
        epsilon = data.draw(st.floats(0.01, 0.99))
        seed = data.draw(st.integers(0, 2**32 - 1))
        if not shared:
            table, memo, ref_memo = {}, {}, {}

        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = construct_path(
            particle, gbest, params, model, capped, rng, epsilon, stride_memo=memo,
            move_table=table,
        )
        want = reference_construct_path(
            particle, gbest, params, model, capped, ref_rng, epsilon, stride_memo=ref_memo
        )
        assert got == want
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("c", [0.0, -0.0, 1e308, math.inf])
def test_coefficients_at_their_edges_match_the_reference_step_loop(c):
    # A standard step where neither best meets a candidate scores without
    # its alignment variates: c * r * 0 must come out as the step loop's
    # for every c (-0.0 keeps its sign, inf gives NaN).  Each path is the
    # next one's previous path, so that the bests meet candidates too.
    for dom in (MazeDomain(generate_maze(7, 7, 0.5, 3)), GridStub(5, 5)):
        for model in (None, make_model()):
            for w, c1, c2 in ((c, c, c), (0.4, c, 1.0), (0.4, 1.0, c)):
                params = PsoParams(inertia=w, cognitive=c1, social=c2, heuristic_weight=1.0)
                paths = [None, None]
                table = {}
                for seed in range(6):
                    particle = Particle(current=paths[-1], pbest=paths[-2])
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    got = construct_path(
                        particle, paths[1], params, model, dom, rng, 0.1,
                        move_table=table,
                    )
                    want = reference_construct_path(
                        particle, paths[1], params, model, dom, ref_rng, 0.1
                    )
                    assert got == want, (w, c1, c2, seed)
                    assert rng.getstate() == ref_rng.getstate()
                    paths.append(got)


def test_a_call_without_a_table_builds_what_a_shared_table_gives():
    dom = MazeDomain(generate_maze(6, 6, 0.3, 4))
    table = {}
    for seed in range(5):
        alone = construct_path(Particle(), None, PsoParams(), None, dom, random.Random(seed), 0.1)
        shared = construct_path(
            Particle(), None, PsoParams(), None, dom, random.Random(seed), 0.1, move_table=table
        )
        assert alone == shared
    assert table


# -- what the table holds after a run ------------------------------------------


def swarm_run(dom, generations=6, guided=False):
    """A swarm run's state after some generations, and every visited cell."""
    config = ExperimentConfig(population_size=6, max_generations=generations)
    explorer = PsoExplorer(PsoParams(heuristic_weight=1.0))
    model = make_model() if guided else None
    if guided:
        model.add_macro(1, 1)
    rng = random.Random(3)
    state = explorer.initialize(dom, config, rng)
    visited = set()
    for t in range(1, generations + 1):
        result = explorer.run_generation(state, t, model, dom, config, rng)
        for traj in result.evaluated:
            visited.update(traj.states)
    return state, visited


def test_table_holds_one_entry_per_cell_and_entry_cell_met():
    # Each corridor an entry holds starts with the entry's one candidate,
    # follows every forced step after it and stops where the next step is
    # not forced, is a dead end or repeats; together the corridors of a
    # run cover each (cell, entry cell) at most twice (a start cell inside
    # a corridor is the one way a second corridor overlaps the first).
    for connectivity in (0.0, 0.5, 1.0):
        for guided in (False, True):
            dom = MazeDomain(generate_maze(7, 7, connectivity, 5))
            state, visited = swarm_run(dom, guided=guided)
            step = dom.step_table
            cells = len(step) // 4

            def onward(cell, entry):
                ways = step[4 * cell:4 * cell + 4]
                return [m for m in range(4) if ways[m] >= 0 and ways[m] != entry]

            per_cell, covered = {}, {}
            for key, (moves, ends, dead_end, corridor) in state.move_table.items():
                entry, cell = divmod(key, cells)  # entry -1: the start
                per_cell[cell] = per_cell.get(cell, 0) + 1
                ways = step[4 * cell:4 * cell + 4]
                assert dead_end == (not onward(cell, entry))
                assert list(moves) == (onward(cell, entry) or [m for m in range(4) if ways[m] >= 0])
                assert list(ends) == [ways[m] for m in moves]
                if corridor is None:
                    continue
                run, path = corridor
                assert (run[0], path[0]) == (moves[0], ends[0]) and len(moves) == 1
                seen = [key]
                entry, cell = cell, ends[0]
                for move, reached in zip(run[1:], path[1:]):
                    seen.append(entry * cells + cell)
                    assert onward(cell, entry) == [move]
                    entry, cell = cell, step[4 * cell + move]
                    assert reached == cell
                assert len(set(seen)) == len(seen)
                stop = entry * cells + cell
                assert cell == dom.goal_index or stop in seen or len(onward(cell, entry)) != 1
                for k in seen:
                    covered[k] = covered.get(k, 0) + 1
            assert set(per_cell) <= visited
            for cell, n in per_cell.items():
                open_moves = sum(1 for m in range(4) if step[4 * cell + m] >= 0)
                assert n <= open_moves + 1, (cell, n)
            assert all(n <= 2 for n in covered.values())
            # A live macro may join any step: then no corridor is taken.
            assert bool(covered) == (not guided)


def test_a_run_leaves_nothing_behind():
    def module_dicts():
        return {name: len(v) for name, v in vars(pso).items() if isinstance(v, dict)}

    before = module_dicts()
    config = ExperimentConfig(population_size=4, max_generations=3)
    for run in (run_standard, run_ace):
        dom = GridStub(4, 4)
        ref = weakref.ref(dom)
        run(config, PsoExplorer(), dom, random.Random(1))
        del dom
        gc.collect()
        assert ref() is None, run.__name__
    assert module_dicts() == before

