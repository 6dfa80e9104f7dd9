"""Every numeric setting has a range, checked by one rule: a value out of
range, NaN included, raises ConfigError naming the setting, its range
and the value."""

from __future__ import annotations

import dataclasses
import inspect
import math
import random

import pytest

from ace.chain import ChainSpec
from ace.ea import EaParams
from ace.errors import ConfigError, check_range
from ace.gca import GcaParams, apply_exploration_floor, softmax_floor
from ace.loop import ExperimentConfig
from ace.maze import MazeDomain, check_maze_shape, generate_maze
from ace.pso import Particle, PsoParams, PsoState, construct_path


@pytest.mark.parametrize(
    "args, bounds, message",
    [
        (("min_len", 0, 1), {}, "min_len must be >= 1, got 0"),
        (("effectiveness_min", 7.0, 0, 1), {}, "effectiveness_min must lie in [0, 1], got 7.0"),
        (("parallelism", 65, None, 64), {}, "parallelism must be <= 64, got 65"),
        (("reward", 0.0, 0), {"open_low": True}, "reward must be > 0, got 0.0"),
        (("floor", 1.0, 0, 1), {"open_low": True, "open_high": True},
         "floor must lie in (0, 1), got 1.0"),
        (("x", math.nan, 0), {}, "x must be >= 0, got nan"),
        (("x", math.nan, None, 1), {"open_high": True}, "x must be < 1, got nan"),
    ],
)
def test_check_range_message(args, bounds, message):
    with pytest.raises(ConfigError) as e:
        check_range(*args, **bounds)
    assert str(e.value) == message


def test_check_range_admits_closed_ends_and_unbounded_sides():
    for value in (0, 1, 0.5):
        check_range("x", value, 0, 1)
    check_range("x", 10**30, 0)
    check_range("x", -(10**30), high=0)
    check_range("x", math.inf, 0)
    check_range("x", 0.5, 0, 1, open_low=True, open_high=True)


def numeric_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type.split(" | ")[0] in ("int", "float")]


def _maze_domain(**keywords):
    return MazeDomain(generate_maze(5, 5, 0.3, 1), **keywords)


NAN = math.nan
# Each numeric setting, set to NaN where it is read.
NAN_SETTINGS = {
    **{f"GcaParams.{n}": lambda n=n: GcaParams(**{n: NAN}).validate()
       for n in numeric_fields(GcaParams)},
    **{f"{cls.__name__}.{n}": lambda cls=cls, n=n: cls(**{n: NAN}).validate()
       for cls in (EaParams, PsoParams, ExperimentConfig, ChainSpec) for n in numeric_fields(cls)},
    "ChainSpec.rewards": lambda: ChainSpec(rewards={(0, 1): NAN}).validate(),
    **{f"MazeDomain.{n}": lambda n=n: _maze_domain(**{n: NAN})
       for n in inspect.signature(MazeDomain).parameters if n != "maze"},
    "maze width": lambda: check_maze_shape(NAN, 5, 0.3),
    "maze height": lambda: check_maze_shape(5, NAN, 0.3),
    "maze connectivity": lambda: check_maze_shape(5, 5, NAN),
    "apply_exploration_floor": lambda: apply_exploration_floor([(0, 1.0)], NAN),
    "softmax_floor": lambda: softmax_floor([0.0], NAN),
    "construct_path": lambda: construct_path(
        Particle(), PsoState([]), PsoParams(), None, _maze_domain(), random.Random(0), NAN),
}


@pytest.mark.parametrize("setting", sorted(NAN_SETTINGS))
def test_nan_setting_raises_config_error(setting):
    with pytest.raises(ConfigError, match=r"got (5x)?nan"):
        NAN_SETTINGS[setting]()


# The two unbounded GcaParams ranges: NaN and both infinities fall outside.
GCA_RATE_RANGES = {"temperature": "(0, inf)", "learning_rate": "[0, inf)"}


@pytest.mark.parametrize("value", [NAN, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(GCA_RATE_RANGES))
def test_gca_rates_must_be_finite(name, value):
    message = f"{name} must lie in {GCA_RATE_RANGES[name]}, got {value}"
    with pytest.raises(ConfigError) as e:
        GcaParams(**{name: value}).validate()
    assert str(e.value) == message
    GcaParams(**{name: 1e308}).validate()


# The swarm's score coefficients: an infinite one makes every unmet
# alignment term inf * r * 0 = NaN, so every score would be NaN.
PSO_COEFFICIENTS = ("inertia", "cognitive", "social", "heuristic_weight", "guidance_weight")


@pytest.mark.parametrize("value", [NAN, math.inf, -math.inf])
@pytest.mark.parametrize("name", PSO_COEFFICIENTS)
def test_pso_coefficients_must_be_finite(name, value):
    with pytest.raises(ConfigError) as e:
        PsoParams(**{name: value}).validate()
    assert str(e.value) == f"{name} must lie in [0, inf), got {value}"
    PsoParams(**{name: 1e308}).validate()
