from __future__ import annotations

import random

from ace.gca import GcaModel, GcaParams, GcaThresholds, MacroOperation
from ace.loop import Trajectory


def make_model(
    n_atomic=4,
    weights=None,
    support=None,
    macros=None,
    mask_mode="all",
    **params,
):
    """Model with preset state for unit tests."""
    model = GcaModel(
        atomic_ops=[f"op{i}" for i in range(n_atomic)],
        params=GcaParams(**params) if params else GcaParams(),
        weights=dict(weights or {}),
        support=dict(support or {}),
        macros=list(macros or []),
        vocab_size=n_atomic + len(macros or []),
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
            thresholds=GcaThresholds(
                weight_min=rng.uniform(0, 2),
                support_min=rng.randint(0, 10),
                lift_min=rng.uniform(0, 5),
                effectiveness_min=rng.uniform(0, 1),
            ),
        ),
        weights=weights,
        support=support,
        macros=macros,
        vocab_size=vocab,
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
        self.neighbor_table = []
        for y in range(height):
            for x in range(width):
                nbrs = []
                for move, (dx, dy) in enumerate(deltas):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < width and 0 <= ny < height:
                        nbrs.append((move, ny * width + nx))
                self.neighbor_table.append(tuple(nbrs))
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
