from __future__ import annotations

import ast
import dataclasses
import gc
import io
import json
import math
import random
import sys
import tokenize
import tracemalloc
from bisect import bisect_right
from itertools import repeat

from ace import cli
from ace.errors import DomainError, check_range
from ace.gca import (
    FORMAT_VERSION,
    GcaModel,
    GcaParams,
    MacroOperation,
    PairTable,
    _float_text,
    deserialize_model,
    serialize_model,
    softmax_floor_choice,
)
from ace.loop import Trajectory

# The interpreter a reading was taken on, as the readings that vary with it
# name it.
PYTHON = "Python %d.%d" % sys.version_info[:2]


def print_report(reading: str) -> None:
    """Print one reading as a REPORT line.  CI copies these lines, with
    the ACCEPTANCE lines, from the tier-1 log into its step summary; run
    `pytest -rP` to see them locally."""
    print("REPORT", reading)


def draw(cum: list[float], rng: random.Random) -> int:
    """Reference inverse-CDF draw: the index of the first cumulative
    probability above a uniform variate (the last index if rounding leaves
    none).  The sampling paths of ace.gca must pick what this picks."""
    last = len(cum) - 1
    if last < 0:
        raise DomainError("no valid successors")
    return min(bisect_right(cum, rng.random()), last)


def make_model(
    n_atomic=4,
    weights=None,
    support=None,
    macros=None,
    mask_mode="all",
    **params,
):
    """Model with preset state for unit tests; every support key must
    have a weight."""
    model = GcaModel(
        atomic_ops=[f"op{i}" for i in range(n_atomic)],
        params=GcaParams(**params) if params else GcaParams(),
        weights=PairTable(weights or {}, support or {}),
        macros=list(macros or []),
        mask_mode=mask_mode,
    )
    return model


def random_model(rng: random.Random) -> GcaModel:
    """Randomized but invariant-respecting model, for round-trip tests."""
    n_atomic = rng.randint(2, 6)
    macros = []
    vocab = n_atomic
    for _ in range(rng.randint(0, 4)):
        macros.append(
            MacroOperation(
                id=vocab,
                left=rng.randrange(vocab),
                right=rng.randrange(vocab),
                uses=rng.randint(0, 50),
                successful_uses=0,
                created_at_generation=rng.randint(0, 200),
                pruned=rng.random() < 0.3,
            )
        )
        macros[-1].successful_uses = rng.randint(0, macros[-1].uses)
        vocab += 1
    weights = {}
    support = {}
    for _ in range(rng.randint(0, 40)):
        key = (rng.randrange(vocab), rng.randrange(vocab))
        weights[key] = rng.random() * 10 ** rng.randint(-8, 8)
        if rng.random() < 0.7:
            support[key] = rng.randint(1, 500)
    return GcaModel(
        atomic_ops=[f"a{i}" for i in range(n_atomic)],
        params=GcaParams(
            temperature=rng.uniform(0.05, 8.0),
            exploration_floor=rng.uniform(1e-6, 0.999),
            learning_rate=rng.uniform(0.0, 2.0),
            decay=rng.uniform(0.0, 1.0),
            weight_min=rng.uniform(0, 2),
            support_min=rng.randint(0, 10),
            lift_min=rng.uniform(0, 5),
            effectiveness_min=rng.uniform(0, 1),
        ),
        weights=PairTable(weights, support),
        macros=macros,
    )


class GridStub:
    """Minimal path domain: an open width x height grid with a heuristic
    array the test controls.  Keeps swarm tests independent of the maze
    generator."""

    transition_mask_mode = "all"

    def __init__(self, width, height, heuristic=None, max_path_len=50):
        self.width = width
        self.height = height
        self.atomic_op_names = ["N", "E", "S", "W"]
        self.atomic_count = 4
        self.start_index = 0
        self.goal_index = width * height - 1
        self.default_max_path_len = max_path_len
        self.default_genome_bounds = (1, 4 * width * height)
        deltas = ((0, -1), (1, 0), (0, 1), (-1, 0))
        # step_table[4 * cell + move]: the cell reached, or -1 off the grid.
        self.step_table = [-1] * (4 * width * height)
        for y in range(height):
            for x in range(width):
                for move, (dx, dy) in enumerate(deltas):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < width and 0 <= ny < height:
                        self.step_table[4 * (y * width + x) + move] = ny * width + nx
        if heuristic is None:
            gx, gy = (width - 1, height - 1)
            span = gx + gy
            heuristic = [
                1.0 - (abs(gx - x) + abs(gy - y)) / span if span else 1.0
                for y in range(height)
                for x in range(width)
            ]
        self.heuristic = heuristic

    def evaluate_path(self, states, ops, atomic_moves, success):
        return Trajectory(
            ops=ops,
            atomic_ops=atomic_moves,
            fitness=1000.0 if success else float(len(atomic_moves)),
            success=success,
            states=states,
            steps_used=len(atomic_moves),
        )


class Lacking:
    """A domain with one attribute taken away: every other attribute is
    read from the wrapped domain."""

    def __init__(self, domain, missing):
        self._domain = domain
        self._missing = missing

    def __getattr__(self, name):
        if name == self._missing:
            raise AttributeError(name)
        return getattr(self._domain, name)


def _states(traj):
    return traj.states or () if traj is not None else ()


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


def reference_construct_path(
    particle,
    gbest,
    params,
    model,
    domain,
    rng: random.Random,
    epsilon: float,
):
    """Reference step loop: construct_path as it was before the swarm's
    tables, one step at a time from the step table, each macro stride
    walked anew at every step.  construct_path, given a state whose swarm
    best is gbest, must build the same trajectory and leave rng in the
    same state."""
    check_range("exploration floor", epsilon, 0, 1, open_low=True, open_high=True)
    step = domain.step_table
    heuristic = domain.heuristic
    goal = domain.goal_index
    max_len = domain.default_max_path_len

    macro_info = []
    if model is not None:
        for macro in model.macros:
            if not macro.pruned:
                flat = tuple(model.flatten_macro(macro.id))
                macro_info.append((macro.id, flat[0], flat))

    # A candidate aligns with a reference path when that path sits on the
    # candidate's end cell at the same depth.
    prev_states = _states(particle.current)
    pbest_states = _states(particle.pbest)
    gbest_states = _states(gbest)
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

    no_term = repeat(0.0)  # standard mode: never added
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
            break  # a dead end: the only open move, if any, leads back
        n_moves = len(cand)
        end_at = [steps + 1] * n_moves
        strides: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (cells, flat) per macro
        if macro_info:
            allowed = tuple(cand)
            room = max_len - steps
            for macro_id, first_move, flat in macro_info:
                if first_move not in allowed:
                    continue
                cells, wall = _walk_stride(step, cur, flat, goal)
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
            # The learned term, as a probability per candidate.
            if not guided:
                learned = no_term
            elif prev_op is None:
                learned = repeat(1.0 / len(cand))
            else:
                learned = model.floored_distribution(prev_op, cand)

            # A bool counts as 1 or 0: the alignment terms are
            # coefficient * 1.0 or coefficient * 0.0, as a 0/1 float would.
            scores = []
            for end, at, p in zip(ends, end_at, learned):
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


def reference_serialize_model(model: GcaModel) -> str:
    """Reference writer: serialize_model as it was before it joined the
    text row by row, holding one string per stored entry.  serialize_model
    must write the same text."""
    p = model.params
    doc = {
        "version": FORMAT_VERSION,
        "atomic_ops": list(model.atomic_ops),
        "vocab_size": model.vocab_size,
        "tau": float(p.temperature),
        "epsilon": float(p.exploration_floor),
        "lambda": float(p.learning_rate),
        "gamma": float(p.decay),
        "thresholds": {
            "w": float(p.weight_min), "s": p.support_min, "l": float(p.lift_min),
            "eff": float(p.effectiveness_min),
        },
    }
    tail = {"macros": [dataclasses.asdict(m) for m in model.macros]}
    weights, support = [], []
    for i, cols, row_weights, row_counts in model.weights.sorted_rows():
        prefix = f"    [\n      {i},\n      "
        floats = list(map(float, row_weights))
        text = repr if all(map(math.isfinite, floats)) else _float_text
        weights.extend(f"{prefix}{j},\n      {v}\n    ]" for j, v in zip(cols, map(text, floats)))
        support.extend(
            f"{prefix}{j},\n      {c}\n    ]" for j, c in zip(cols, row_counts) if c
        )
    head = json.dumps(doc, indent=2)[: -len("\n}")]
    rest = json.dumps(tail, indent=2)[len("{"):]
    return (
        f'{head},\n  "weights": {_json_list(weights)},\n'
        f'  "support": {_json_list(support)},{rest}'
    )


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def synthetic_model(entries=12_000, vocab=120, supported=4_000, seed=0) -> GcaModel:
    """A model over vocab atomic ops with the given number of stored
    pairs, in random slot order, of which the first `supported` carry a
    support count; the weights span 1e-8 to 1e2."""
    rng = random.Random(seed)
    pairs = rng.sample([(i, j) for i in range(vocab) for j in range(vocab)], entries)
    weights = {pair: rng.random() * 10 ** rng.randint(-8, 2) for pair in pairs}
    support = {pair: rng.randint(1, 500) for pair in pairs[:supported]}
    return GcaModel(
        atomic_ops=[f"t{i}" for i in range(vocab)], weights=PairTable(weights, support)
    )


def model_io_peaks(model: GcaModel) -> tuple[float, float]:
    """(loading, writing): the tracemalloc peak of deserialize_model and
    of serialize_model over the model's text, each as a multiple of the
    text's length and counted above what was allocated before the call."""
    text = serialize_model(model)
    ratios = []
    for call, arg in ((deserialize_model, text), (serialize_model, model)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        ratios.append((peak - base) / len(text))
    return ratios[0], ratios[1]


def retained_instance_memory(path="configs/maze_suite.json", arm="std-pso") -> tuple[int, int]:
    """(instances, bytes): the traced memory a process keeps after one
    run of arm (max_generations 2) over each instance of the maze suite
    at path, with its instance memo emptied first.  What it keeps is what
    later runs reuse: each maze domain and its swarm move table."""
    suite = cli.SuiteSpec.from_file(path)
    suite.runs_per_arm = 1
    for each in suite.arms:
        each.config = dataclasses.replace(each.config, max_generations=2)
    tasks = cli.build_tasks(suite, arm)
    cli._maze_domain.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for task in tasks:
            cli._execute_run(task, None)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return len(tasks), kept


def code_lines(path) -> int:
    """The lines of the Python source at path that hold code: not blank,
    not only a comment, and not part of a module, class or function
    docstring.  A line that a multi-line expression or string spans
    counts once."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = set()
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skipped:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)
