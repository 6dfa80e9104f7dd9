"""The swarm's tables: construct_path against the step loop they
replaced, and what the tables hold and keep after a run."""

from __future__ import annotations

import copy
import gc
import math
import random
import weakref
from itertools import accumulate

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import ace.pso as pso
from ace.gca import GcaParams, softmax_floor
from ace.loop import ExperimentConfig, Trajectory, run_ace, run_standard
from ace.maze import MazeDomain, generate_maze
from ace.pso import Particle, PsoExplorer, PsoParams, PsoState, construct_path

from helpers import GridStub, make_model, reference_construct_path

EPS = GcaParams().exploration_floor


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
    state = PsoState([])
    for _ in range(data.draw(st.integers(1, 3))):
        params = PsoParams(
            heuristic_weight=data.draw(st.floats(0.0, 3.0)),
            guidance_weight=data.draw(st.floats(0.0, 3.0)),
            dead_end_mode=data.draw(st.sampled_from(["backtrack", "terminate"])),
        )
        # The same domain with its own step budget: the state's tables
        # stay valid, as they hold nothing cut to a budget.
        capped = copy.copy(dom)
        capped.default_max_path_len = data.draw(st.integers(1, 2 * cells))
        particle = Particle(
            current=data.draw(trajectories(cells)), pbest=data.draw(trajectories(cells))
        )
        gbest = data.draw(trajectories(cells))
        epsilon = data.draw(st.floats(0.01, 0.99))
        seed = data.draw(st.integers(0, 2**32 - 1))
        if not shared:
            state = PsoState([])
        state.gbest = gbest

        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = construct_path(particle, state, params, model, capped, rng, epsilon)
        want = reference_construct_path(
            particle, gbest, params, model, capped, ref_rng, epsilon
        )
        assert got == want
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("c", [0.0, -0.0, 1e308, math.inf])
def test_coefficients_at_their_edges_match_the_reference_step_loop(c):
    # A standard step where neither best meets a candidate scores without
    # its alignment variates: c * r * 0 must come out as the step loop's
    # for every c (-0.0 keeps its sign, inf gives NaN).  The last three
    # paths built are the previous path, the particle best and the swarm
    # best, so that each of the three meets candidates too; the last
    # model's macros (E E and S S) are scored at their own depth.
    striding = make_model()
    striding.add_macro(1, 1)
    striding.add_macro(2, 2)
    for dom in (MazeDomain(generate_maze(7, 7, 0.5, 3)), GridStub(5, 5)):
        for model in (None, make_model(), striding):
            for w, c1, c2 in ((c, c, c), (0.4, c, 1.0), (0.4, 1.0, c)):
                params = PsoParams(inertia=w, cognitive=c1, social=c2, heuristic_weight=1.0)
                paths = [None, None, None]
                state = PsoState([])
                for seed in range(6):
                    particle = Particle(current=paths[-1], pbest=paths[-2])
                    state.gbest = paths[-3]
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    got = construct_path(particle, state, params, model, dom, rng, 0.1)
                    want = reference_construct_path(
                        particle, paths[-3], params, model, dom, ref_rng, 0.1
                    )
                    assert got == want, (w, c1, c2, seed)
                    assert rng.getstate() == ref_rng.getstate()
                    paths.append(got)


def test_a_fresh_state_builds_what_a_shared_state_gives():
    dom = MazeDomain(generate_maze(6, 6, 0.3, 4))
    state = PsoState([])
    for seed in range(5):
        alone = construct_path(
            Particle(), PsoState([]), PsoParams(), None, dom, random.Random(seed), 0.1
        )
        shared = construct_path(Particle(), state, PsoParams(), None, dom, random.Random(seed), 0.1)
        assert alone == shared
    assert state.move_table


def test_shared_tables_serve_calls_with_other_coefficients_and_macros():
    # One state's move table and macro table across calls whose
    # coefficients, epsilon, budget and live macros differ.  A cached law
    # serves only the terms it was built from, and the two guided models
    # give macro 4 the same id but other strides (E E and S S), so their
    # candidates must not be taken for each other's.
    maze = MazeDomain(generate_maze(7, 7, 0.6, 8))
    first, second = make_model(weights={(1, 2): 1.5}), make_model(weights={(2, 1): 0.5})
    first.add_macro(1, 1)
    second.add_macro(2, 2)
    calls = [
        (PsoParams(heuristic_weight=1.0), 0.1),
        (PsoParams(heuristic_weight=2.5), 0.1),
        (PsoParams(heuristic_weight=2.5, inertia=0.0), 0.1),
        (PsoParams(heuristic_weight=2.5, inertia=math.inf), 0.1),
        (PsoParams(heuristic_weight=2.5, cognitive=0.0, social=3.0), 0.1),
        (PsoParams(heuristic_weight=2.5, cognitive=-0.0, social=math.inf), 0.1),
        (PsoParams(heuristic_weight=2.5), 0.4),
        (PsoParams(heuristic_weight=1.0), 0.1),
    ]
    state = PsoState([])
    for model in (None, first, second, first, None):
        for params, epsilon in calls:
            for cap in (60, 9):
                dom = copy.copy(maze)
                dom.default_max_path_len = cap
                previous = None
                for seed in range(3):
                    # No reference path at first, then the last path as
                    # the previous one, so that steps meet and miss it.
                    particle = Particle(current=previous)
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    got = construct_path(particle, state, params, model, dom, rng, epsilon)
                    want = reference_construct_path(
                        particle, None, params, model, dom, ref_rng, epsilon
                    )
                    assert got == want, (model, params, epsilon, cap, seed)
                    assert rng.getstate() == ref_rng.getstate()
                    previous = got
        if model is not None:
            flat = tuple(model.flatten_macro(4))
            assert list(state.macro_table) == [((4, flat),)]
    assert any(law is not None for *_, law in state.move_table.values())


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
    for _ in range(generations):
        result = explorer.run_generation(state, model, dom, config, rng)
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

            per_cell, covered, laws = {}, {}, 0
            for key, (moves, ends, dead_end, corridor, law) in state.move_table.items():
                entry, cell = divmod(key, cells)  # entry -1: the start
                if law is not None:
                    # Only a standard step caches a law, from its own terms.
                    terms, sums = law
                    assert not guided and terms == (1.0, 0.0, 0.0, 0.0, EPS)
                    scores = [1.0 * dom.heuristic[end] + 0.0 + 0.0 + 0.0 for end in ends]
                    assert sums == list(accumulate(softmax_floor(scores, EPS)))[:-1]
                    laws += 1
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
            assert bool(laws) == (not guided)
            if guided:
                check_macro_table(state, dom, live=((4, (1, 1)),))
            else:
                assert state.macro_table == {}


def check_macro_table(state, dom, live):
    """The macro table holds the live set alone, and each of its entries
    the walks and candidates that set gives, recomputed from the step
    table."""
    step = dom.step_table
    (held, joined), = state.macro_table.items()
    assert held == live and joined
    for key, got in joined.items():
        moves, ends, *_ = state.move_table[key]
        cell = key % (len(step) // 4)
        cand, reached, depths, strides, reach = list(moves), list(ends), [1] * len(moves), [], 1
        walks = []
        for macro_id, flat in live:
            if flat[0] not in moves:
                continue
            walked, at = [], cell
            for move in flat:
                at = step[4 * at + move]
                if at < 0:
                    break
                walked.append(at)
                if at == dom.goal_index:
                    break
            walks.append((macro_id, flat, tuple(walked), len(walked) if at < 0 else -1))
            if at < 0:  # a wall: no candidate, but the budget must hold it
                reach = max(reach, len(walked) + 1)
                continue
            reach = max(reach, len(walked))
            cand.append(macro_id)
            reached.append(walked[-1])
            depths.append(len(walked))
            strides.append((tuple(walked), flat))
        if strides:
            want = (tuple(cand), tuple(reached), tuple(depths), tuple(strides), reach, tuple(walks))
        else:
            want = (moves, ends, None, None, reach, tuple(walks))
        assert got == want, key


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

