from __future__ import annotations

import copy
import math
import random
from collections import Counter
from itertools import accumulate

import pytest

import ace.pso as pso
from ace.errors import ConfigError, DomainError
from ace.gca import (
    GcaParams, PairTable, softmax_floor, softmax_floor_choice, softmax_floor_sums,
)
from ace.loop import ExperimentConfig, Trajectory, run_standard
from ace.maze import MazeDomain, generate_maze
from ace.pso import Particle, PsoExplorer, PsoParams, PsoState, construct_path

from helpers import GridStub, Lacking, make_model, reference_construct_path

EPS = GcaParams().exploration_floor


def path(states):
    return Trajectory(ops=[], atomic_ops=[], fitness=0.0, states=states)


def step_scores(
    monkeypatch, dom, params, particle=None, gbest=None, model=None, seed=1, stride_memo=None
):
    """Candidate scores of the scored steps of one construct_path call, as
    handed to the floored choice or, where no reference path meets a
    candidate of a standard step, to the law that step builds.  The call
    has a move table of its own, so a law is seen the first time its
    (cell, entry cell) is met."""
    seen = []

    def spy(scores, eps, rng):
        seen.append(list(scores))
        return softmax_floor_choice(scores, eps, rng)

    def law_spy(scores, eps):
        seen.append(list(scores))
        return softmax_floor_sums(scores, eps)

    monkeypatch.setattr(pso, "softmax_floor_choice", spy)
    monkeypatch.setattr(pso, "softmax_floor_sums", law_spy)
    construct_path(
        particle or Particle(), gbest, params, model, dom, random.Random(seed), EPS,
        stride_memo=stride_memo,
    )
    return seen


def entering_center(max_path_len=50):
    """3x3 open grid whose walk starts at cell 1 and is forced south into
    the four-way center cell 4, entering it with move S."""
    dom = GridStub(3, 3, heuristic=[0.0] * 9, max_path_len=max_path_len)
    dom.start_index = 1
    dom.step_table[4:8] = [-1, -1, 4, -1]  # cell 1: only S, to cell 4
    return dom


# -- step scoring -------------------------------------------------------------


def test_score_all_coefficients_zero(monkeypatch):
    dom = GridStub(3, 3)
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=0)
    seen = step_scores(monkeypatch, dom, params)
    assert seen[0] == [0.0, 0.0]
    assert all(s == 0.0 for step in seen for s in step)


def test_score_heuristic_isolated(monkeypatch):
    dom = GridStub(3, 3, heuristic=[0.0, 0.7, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 1.0])
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=1.0, guidance_weight=0)
    # the corner start offers E (cell 1) and S (cell 3)
    assert step_scores(monkeypatch, dom, params)[0] == pytest.approx([0.7, 0.3])


def test_score_hand_sum(monkeypatch):
    dom = GridStub(3, 3, heuristic=[0.0] * 9)
    # previous path goes 0 -> 1, so the E candidate aligns at step 0
    particle = Particle(current=path([0, 1, 2]))
    params = PsoParams(
        inertia=0.5, cognitive=0, social=0, heuristic_weight=0, guidance_weight=2.0
    )
    # at the start of a walk there is no entering op: the learned term is
    # uniform over the two candidates
    seen = step_scores(monkeypatch, dom, params, particle, model=make_model())
    assert seen[0] == pytest.approx([0.5 * 1.0 + 2.0 * 0.5, 2.0 * 0.5])


def test_score_guidance_third_on_open_cell(monkeypatch):
    dom = entering_center()
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=2.0)
    seen = step_scores(monkeypatch, dom, params, model=make_model())
    # the forced first step is the only candidate and goes unscored; the
    # center has four moves but backtracking is not a candidate: zero
    # weights and the floor give 1/3 to each of E, S and W
    assert seen[0] == pytest.approx([2.0 / 3] * 3)


def test_score_inertia_plus_guidance_sums_to_one(monkeypatch):
    # previous path continues east from the center: 0.5 * 1 + 1.5 / 3 = 1.0
    dom = entering_center()
    particle = Particle(current=path([1, 4, 5]))
    params = PsoParams(inertia=0.5, cognitive=0, social=0, heuristic_weight=0, guidance_weight=1.5)
    seen = step_scores(monkeypatch, dom, params, particle, model=make_model())
    assert seen[0] == pytest.approx([1.0, 0.5, 0.5])


def test_score_invalid_neighbor_rejected():
    # only valid successors are ever candidates: every step of a built
    # path, macro strides included, crosses an open edge of the maze
    dom = MazeDomain(generate_maze(6, 6, 0.0, 2))
    model = make_model()
    for left, right in ((1, 1), (2, 2), (1, 2)):
        model.add_macro(left, right)
    dom.default_max_path_len = 40
    params = PsoParams(heuristic_weight=1.0)
    rng = random.Random(3)
    strides = 0
    for _ in range(50):
        traj = construct_path(Particle(), None, params, model, dom, rng, EPS)
        strides += sum(1 for op in traj.ops if op >= 4)
        for a, b in zip(traj.states, traj.states[1:]):
            assert b in dom.step_table[4 * a:4 * a + 4]
    assert strides > 0


def test_score_linear_in_each_coefficient(monkeypatch):
    dom = entering_center()
    particle = Particle(current=path([1, 4, 5]), pbest=path([1, 4, 7]))
    gbest = path([1, 4, 3])
    base = dict(inertia=0.3, cognitive=0.7, social=0.9, heuristic_weight=0.4, guidance_weight=1.1)
    model = make_model(weights={(2, 1): 2.0})  # S then E is favoured

    def center_scores(args):
        seen = step_scores(
            monkeypatch, dom, PsoParams(**args), particle, gbest, model, seed=42
        )
        return seen[0]

    for coeff in base:
        once = center_scores(base)
        twice = center_scores(dict(base, **{coeff: 2 * base[coeff]}))
        zero = center_scores(dict(base, **{coeff: 0.0}))
        for s1, s2, s0 in zip(once, twice, zero):
            assert s2 - s0 == pytest.approx(2 * (s1 - s0), rel=1e-9, abs=1e-12)


def test_guided_step_frequencies_over_real_candidates():
    # the learned term is the floored distribution over the three
    # candidates actually offered at the center, not over all four moves
    dom = entering_center(max_path_len=2)
    model = make_model(weights={(2, 1): 3.0})
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=2.0)
    p_theta = [p for _, p in model.floored_distribution(2, [1, 2, 3])]
    exps = [math.exp(2.0 * p) for p in p_theta]
    eps = model.params.exploration_floor
    expected = [(1 - eps) * e / sum(exps) + eps / 3 for e in exps]
    rng = random.Random(9)
    n = 10_000
    counts = Counter()
    for _ in range(n):
        traj = construct_path(Particle(), None, params, model, dom, rng, EPS)
        counts[traj.states[2]] += 1
    for cell, p in zip((5, 7, 3), expected):
        assert abs(counts[cell] / n - p) < 0.015


# -- path construction -----------------------------------------------------------


def test_uniform_walk_first_move_frequencies():
    dom = GridStub(3, 3, heuristic=[0.0] * 9)
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=0)
    rng = random.Random(5)
    counts = Counter()
    for _ in range(10_000):
        traj = construct_path(Particle(), None, params, None, dom, rng, EPS)
        counts[traj.states[1]] += 1
    # corner start: two valid first moves, E (cell 1) and S (cell 3)
    assert abs(counts[1] / 10_000 - 0.5) < 0.02
    assert abs(counts[3] / 10_000 - 0.5) < 0.02


def test_max_path_len_one():
    dom = GridStub(3, 3, max_path_len=1)
    traj = construct_path(Particle(), None, PsoParams(), None, dom, random.Random(1), EPS)
    assert len(traj.atomic_ops) == 1
    assert len(traj.states) == 2


def test_heuristic_dominant_one_step_goal():
    # goal adjacent to start in a 2x1 world: strong pull reaches it immediately
    dom = GridStub(2, 1)
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=100.0, guidance_weight=0)
    wins = 0
    rng = random.Random(2)
    for _ in range(200):
        traj = construct_path(Particle(), None, params, None, dom, rng, EPS)
        wins += traj.success and len(traj.atomic_ops) == 1
    assert wins == 200


def test_no_immediate_backtracking():
    dom = GridStub(5, 1, max_path_len=4)  # corridor: backtrack would be the only wrong move
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=0)
    rng = random.Random(3)
    for _ in range(100):
        traj = construct_path(Particle(), None, params, None, dom, rng, EPS)
        # in a corridor with backtracking banned the walk is forced rightward
        assert traj.states == [0, 1, 2, 3, 4]
        assert traj.success


def test_dead_end_termination_mode():
    # 2x1 world with goal unreachable forward: start -> cell 1 is the goal,
    # so use a 3x1 corridor with the goal at the far end and force a dead end
    # by walking into the wall-free corridor; terminate mode only differs
    # when the sole option is the departed cell, which needs a cul-de-sac.
    from ace.maze import Maze, MazeDomain

    # T-shape: corridor 0-1-2 with a stub hanging off cell 1
    edges = {((0, 0), (1, 0)), ((1, 0), (2, 0)), ((1, 0), (1, 1))}
    maze = Maze(3, 2, (0, 0), (2, 0), 0.0, 0, edges)
    dom = MazeDomain(maze)
    dom.default_max_path_len = 10
    params = PsoParams(
        inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=0,
        dead_end_mode="terminate",
    )
    rng = random.Random(7)
    saw_termination = False
    for _ in range(200):
        traj = construct_path(Particle(), None, params, None, dom, rng, EPS)
        if not traj.success:
            # walked into the stub and stopped there
            assert traj.states[-1] == 1 * 3 + 1
            saw_termination = True
    assert saw_termination

    params_bt = PsoParams(
        inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=0,
        dead_end_mode="backtrack",
    )
    # with turnaround allowed the stub is escapable; some walks still run out
    # of budget, but never end inside the stub one step deep
    for _ in range(200):
        traj = construct_path(Particle(), None, params_bt, None, dom, rng, EPS)
        assert traj.success or len(traj.atomic_ops) == 10


def test_macro_stride_and_rejection():
    dom = GridStub(4, 1, max_path_len=5)
    model = make_model()  # atomic ops: N,E,S,W as 0..3
    model.add_macro(1, 1)  # EE stride, id 4
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=0)
    rng = random.Random(1)
    used_macro = False
    for _ in range(100):
        traj = construct_path(Particle(), None, params, model, dom, rng, EPS)
        assert traj.success  # corridor forces eastward motion
        if 4 in traj.ops:
            used_macro = True
            # the macro is recorded whole and flattens into the move list
            assert traj.atomic_ops == [1, 1, 1]
    assert used_macro


def test_macro_truncated_at_goal_records_prefix():
    dom = GridStub(2, 1, max_path_len=5)
    model = make_model()
    model.add_macro(1, 1)  # id 4
    # bias sampling entirely toward the macro
    model.weights = PairTable({**model.weights, (1, 4): 50.0})
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=0, guidance_weight=5.0)
    rng = random.Random(2)
    for _ in range(50):
        traj = construct_path(Particle(), None, params, model, dom, rng, EPS)
        assert traj.success
        assert traj.atomic_ops == [1]
        assert 4 not in traj.ops  # truncated stride is recorded as its moves


def eastward_stride(max_path_len):
    """3x2 open grid and a model whose one unpruned macro is EEE (id 5).
    From the start corner the stride runs E to cell 1, E to cell 2 and
    then into the east wall; the heuristic pulls hard toward cell 2."""
    dom = GridStub(3, 2, heuristic=[0.0, 0.0, 100.0, 0.0, 0.0, 0.0],
                   max_path_len=max_path_len)
    model = make_model()
    model.add_macro(1, 1).pruned = True  # EE, id 4
    model.add_macro(4, 1)  # EEE, id 5
    params = PsoParams(inertia=0, cognitive=0, social=0, heuristic_weight=1.0, guidance_weight=0)
    return dom, model, params


def test_macro_cut_by_cap_before_wall_is_candidate(monkeypatch):
    # cap 2: the stride stops after E, E, so the wall its third move would
    # hit is never reached and the macro competes, ending on cell 2
    dom, model, params = eastward_stride(max_path_len=2)
    strides = 0
    for seed in range(20):
        seen = step_scores(monkeypatch, dom, params, model=model, seed=seed)
        assert len(seen[0]) == 3  # E, S and the cut EEE
        assert seen[0][2] == 100.0
        took_macro = len(seen) == 1  # one step used the whole budget
        traj = construct_path(Particle(), None, params, model, dom, random.Random(seed), EPS)
        if took_macro:
            strides += 1
            # the cut stride is recorded as the moves it made
            assert traj.ops == [1, 1]
            assert traj.atomic_ops == [1, 1]
            assert traj.states == [0, 1, 2]
    assert strides > 0


@pytest.mark.parametrize("max_path_len", [3, 5])
def test_macro_wall_before_cap_rejects_it(monkeypatch, max_path_len):
    dom, model, params = eastward_stride(max_path_len)
    for seed in range(5):
        seen = step_scores(monkeypatch, dom, params, model=model, seed=seed)
        assert len(seen[0]) == 2  # E and S only
        traj = construct_path(Particle(), None, params, model, dom, random.Random(seed), EPS)
        assert 5 not in traj.ops


def test_stride_memo_filled_far_from_the_cap_is_cut_to_each_step(monkeypatch):
    dom, model, params = eastward_stride(max_path_len=50)
    memo = {}
    construct_path(Particle(), None, params, model, dom, random.Random(0), EPS, stride_memo=memo)
    # Walked uncapped from the start: E to 1, E to 2, then the wall.
    assert memo[(1, 1, 1)][0] == ((1, 2), 2)
    for cap, first_scores in ((1, [0.0, 0.0, 0.0]), (2, [0.0, 0.0, 100.0]), (3, [0.0, 0.0])):
        capped = copy.copy(dom)  # the same maze, the step budget cut to cap
        capped.default_max_path_len = cap
        for seed in range(5):
            seen = step_scores(monkeypatch, capped, params, model=model, seed=seed, stride_memo=memo)
            # cap 1 and 2 cut EEE before its wall (ending on cell 1 or 2),
            # cap 3 reaches the wall and drops it
            assert seen[0] == first_scores
            assert seen == step_scores(monkeypatch, capped, params, model=model, seed=seed)
            shared = construct_path(
                Particle(), None, params, model, capped, random.Random(seed), EPS, stride_memo=memo
            )
            alone = construct_path(Particle(), None, params, model, capped, random.Random(seed), EPS)
            assert (shared.states, shared.ops) == (alone.states, alone.ops)
    assert memo[(1, 1, 1)][0] == ((1, 2), 2)


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def test_draws_two_variates_per_candidate_and_one_per_step(monkeypatch):
    # draw order is part of the result: two variates per candidate (atomic
    # moves, then macros), then one for the selection; a step with one
    # candidate goes unscored but draws the same three (k = 1)
    model = make_model(weights={(1, 2): 1.0, (2, 1): 0.5})
    for left, right in ((1, 1), (2, 2), (1, 2)):
        model.add_macro(left, right)
    params = PsoParams(heuristic_weight=1.0)
    particle = Particle(current=path(list(range(16))), pbest=path([0, 1, 2, 3]))
    rng = CountingRandom(8)
    steps = []

    def spy(scores, eps, choice_rng):
        steps.append((len(scores), rng.calls))
        return softmax_floor_choice(scores, eps, choice_rng)

    monkeypatch.setattr(pso, "softmax_floor_choice", spy)
    # an open grid, where every step has several candidates, and a perfect
    # maze, whose corridors leave many steps a single one
    grid = GridStub(4, 4, max_path_len=30)
    maze = MazeDomain(generate_maze(6, 6, 0.0, 2), path_slack=10)
    unscored_total = 0
    for dom in (grid, maze):
        wide = False
        for _ in range(5):
            steps.clear()
            rng.calls = 0
            traj = construct_path(particle, path([0, 4, 8]), params, model, dom, rng, EPS)
            # every macro here is two moves long, so even a stride cut
            # short records one op: the path took one step per op
            n_steps = len(traj.ops)
            n_unscored = n_steps - len(steps)
            k_sum = sum(candidates for candidates, _ in steps) + n_unscored
            assert rng.calls == 2 * k_sum + n_steps
            drawn = 0
            for candidates, calls_at_softmax in steps:
                # unscored steps since the last scored one drew three each
                unscored = calls_at_softmax - drawn - 2 * candidates
                assert unscored >= 0 and unscored % 3 == 0
                drawn = calls_at_softmax + 1
            assert (rng.calls - drawn) % 3 == 0
            wide = wide or any(candidates > 2 for candidates, _ in steps)
            unscored_total += n_unscored
        assert wide
    assert unscored_total > 0


def single_candidate_walks():
    """Walks whose every step has one candidate: the forced S step into
    the center of entering_center, and a 2x1 corridor with no reachable
    goal, walked E into its dead end and turned back W."""
    center = entering_center(max_path_len=1)
    corridor = GridStub(2, 1, max_path_len=2)
    corridor.goal_index = -1
    return [(center, [1, 4], [2]), (corridor, [0, 1, 0], [1, 3])]


@pytest.mark.parametrize("guided", [False, True])
def test_single_candidate_step_draws_three_variates(monkeypatch, guided):
    def unscored(*args):
        raise AssertionError("a single-candidate step must not be scored")

    monkeypatch.setattr(pso, "softmax_floor_choice", unscored)
    monkeypatch.setattr(pso, "softmax_floor_sums", unscored)
    for dom, states, ops in single_candidate_walks():
        model = None
        if guided:
            model = make_model(weights={(1, 3): 2.0})
            model.add_macro(1, 1)  # EE: never a candidate (E closed, or a wall after it)
            monkeypatch.setattr(model, "floored_distribution", unscored)
        params = PsoParams(heuristic_weight=1.0, dead_end_mode="backtrack")
        rng, twin = random.Random(4), random.Random(4)
        traj = construct_path(Particle(), None, params, model, dom, rng, EPS)
        assert (traj.states, traj.ops) == (states, ops)
        # A corridor advances the generator in one call: compare states,
        # not calls.
        for _ in range(3 * len(ops)):
            twin.random()
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100])
def test_getrandbits_advances_as_random_calls_do(n):
    # Corridors (n = 3 per step) and standard steps no best meets (n = 2
    # per candidate) rely on it: random() takes two 32-bit outputs and
    # getrandbits(64 * n) takes 2 * n, wherever the generator stands in
    # its 624-output block.
    for seed in (0, 1, 12345, 2**32 - 1, "corridor"):
        for warm in (0, 1, 311, 312, 623):
            bits, calls = random.Random(seed), random.Random(seed)
            for rng in (bits, calls):
                for _ in range(warm):
                    rng.random()
            bits.getrandbits(64 * n)
            for _ in range(n):
                calls.random()
            assert bits.getstate() == calls.getstate(), (seed, warm)


def line(width, start, goal, max_path_len=20):
    """A width x 1 GridStub: every step inside it has one candidate."""
    dom = GridStub(width, 1, max_path_len=max_path_len)
    dom.start_index, dom.goal_index = start, goal
    return dom


def ring(goal=-1, max_path_len=30):
    """A 3x3 GridStub with its center closed: eight cells in a ring with
    no junction, the start (cell 0) its only step with two candidates."""
    dom = GridStub(3, 3, max_path_len=max_path_len)
    for slot, cell in enumerate(dom.step_table):
        if cell == 4 or slot // 4 == 4:
            dom.step_table[slot] = -1
    dom.goal_index = goal
    return dom


CORRIDORS = {
    "goal inside a corridor": [line(6, 0, 3), line(6, 5, 2)],
    "budget cuts a corridor": [line(6, 0, 5, cap) for cap in (1, 2, 3, 4)],
    "backtrack dead end": [line(4, 1, -1), line(2, 0, -1, max_path_len=7)],
    "start inside a corridor": [line(6, 2, 5), line(6, 3, 0, max_path_len=9)],
    "ring with no junction": [ring(), ring(goal=7), ring(max_path_len=13)],
}


@pytest.mark.parametrize("case", sorted(CORRIDORS))
def test_corridor_matches_the_reference_step_loop(case):
    # Both dead-end modes and both modes without a live macro share one
    # move table, and so its corridors, per domain.
    draws = random.Random(case)
    for dom in CORRIDORS[case]:
        cells = len(dom.step_table) // 4
        move_table = {}

        def reference_path():
            return path([draws.randrange(cells) for _ in range(draws.randrange(12))])

        for model in (None, make_model()):
            for mode in ("backtrack", "terminate"):
                for seed in range(4):
                    params = PsoParams(heuristic_weight=draws.random(), dead_end_mode=mode)
                    particle = Particle(current=reference_path(), pbest=reference_path())
                    gbest = reference_path()
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    got = construct_path(
                        particle, gbest, params, model, dom, rng, EPS,
                        move_table=move_table,
                    )
                    want = reference_construct_path(
                        particle, gbest, params, model, dom, ref_rng, EPS
                    )
                    assert got == want, (case, model, mode, seed)
                    assert rng.getstate() == ref_rng.getstate()
        assert any(corridor for _, _, _, corridor, _ in move_table.values())
        # A law holds the running sums of the scores its terms give.
        for _, ends, _, _, law in move_table.values():
            if law is not None:
                (alpha, w, c1, c2, eps), sums = law
                scores = [alpha * dom.heuristic[end] + w + c1 + c2 for end in ends]
                assert sums == list(accumulate(softmax_floor(scores, eps)))[:-1]


@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_epsilon_checked_before_any_variate(epsilon):
    dom = GridStub(5, 1)  # a corridor: no step has a second candidate
    rng = CountingRandom(1)
    with pytest.raises(ConfigError):
        construct_path(Particle(), None, PsoParams(), None, dom, rng, epsilon)
    assert rng.calls == 0


# -- swarm generation ----------------------------------------------------------


def test_generation_updates_pbest_and_emits_events():
    dom = GridStub(3, 3)
    explorer = PsoExplorer(PsoParams(heuristic_weight=2.0))
    config = ExperimentConfig(population_size=6)
    state = PsoState([Particle() for _ in range(6)])
    rng = random.Random(4)
    result = explorer.run_generation(state, None, dom, config, rng)
    assert result.events == []  # first paths seed pbest silently
    assert all(p.pbest is not None for p in state.swarm)
    gbest = state.gbest
    assert gbest.fitness == max(p.pbest_fitness for p in state.swarm)

    prev = [p.pbest_fitness for p in state.swarm]
    events2 = explorer.run_generation(state, None, dom, config, rng).events
    for ev in events2:
        assert ev.gain > 0
    improved = sum(1 for a, b in zip(prev, [p.pbest_fitness for p in state.swarm]) if b > a)
    assert len(events2) == improved
    assert state.gbest.fitness >= gbest.fitness


def test_empty_swarm_raises_before_any_variate():
    rng = random.Random(3)
    before = rng.getstate()
    with pytest.raises(DomainError, match="empty swarm"):
        PsoExplorer().run_generation(PsoState([]), None, GridStub(3, 3), ExperimentConfig(), rng)
    assert rng.getstate() == before


def test_gbest_tie_prefers_lower_index():
    dom = GridStub(2, 1)
    state = PsoState([Particle(), Particle()])
    t0 = dom.evaluate_path([0, 1], [1], [1], True)
    t1 = dom.evaluate_path([0, 1], [1], [1], True)
    state.swarm[0].pbest, state.swarm[0].pbest_fitness = t0, t0.fitness
    state.swarm[1].pbest, state.swarm[1].pbest_fitness = t1, t1.fitness
    explorer = PsoExplorer(PsoParams(heuristic_weight=1.0))
    explorer.run_generation(state, None, dom, ExperimentConfig(), random.Random(1))
    assert state.gbest is state.swarm[0].pbest


def test_pbest_monotone():
    dom = GridStub(4, 4)
    explorer = PsoExplorer(PsoParams(heuristic_weight=1.0))
    config = ExperimentConfig(population_size=5, max_generations=8)
    rng = random.Random(6)
    state = explorer.initialize(dom, config, rng)
    last = None
    for _ in range(8):
        explorer.run_generation(state, None, dom, config, rng)
        fits = [p.pbest_fitness for p in state.swarm]
        if last is not None:
            assert all(b >= a for a, b in zip(last, fits))
        assert state.gbest.fitness == max(fits)
        last = fits


def test_standard_mode_touches_no_model(monkeypatch):
    import ace.loop as loop_module

    def boom(*a, **k):
        raise AssertionError("standard mode must not build a model")

    monkeypatch.setattr(loop_module, "GcaModel", boom)
    from ace.loop import run_standard

    dom = GridStub(3, 3)
    config = ExperimentConfig(population_size=4, max_generations=3)
    best, record = run_standard(config, PsoExplorer(), dom, random.Random(1))
    assert record.macros_created == 0
    assert record.hebbian_updates == 0


def test_explorer_requires_path_domain():
    from ace.chain import ChainDomain

    with pytest.raises(ConfigError):
        PsoExplorer().check_domain(ChainDomain())


@pytest.mark.parametrize("missing", ["default_max_path_len", "evaluate_path"])
def test_run_without_a_path_attribute_fails_before_any_variate(missing):
    rng = random.Random(1)
    before = rng.getstate()
    with pytest.raises(ConfigError, match=f"no {missing}"):
        run_standard(ExperimentConfig(), PsoExplorer(), Lacking(GridStub(3, 3), missing), rng)
    assert rng.getstate() == before


def test_params_validation():
    with pytest.raises(ConfigError):
        PsoParams(inertia=-0.1).validate()
    with pytest.raises(ConfigError):
        PsoParams(dead_end_mode="bounce").validate()
