"""What a process keeps between runs: the maze instances of ace.cli's
domain memo and the swarm move table of each.  Records must not depend
on it, and it must stay bounded."""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import ace.cli as cli
import ace.pso as pso
from ace.cli import SuiteSpec, build_domain, orchestrate
from ace.loop import ExperimentConfig, run_ace, run_standard

from helpers import PYTHON, GridStub, print_report, retained_instance_memory

SRC = Path(cli.__file__).resolve().parents[1]

MEMO_SUITE = {
    "suite_seed": 3,
    "runs_per_arm": 2,
    "parallelism": 1,
    "run": {"population_size": 6, "max_generations": 6, "abstraction_period": 2},
    "gca": {"tau": 0.25, "epsilon": 0.1, "lambda": 1e-05, "theta_s": 1, "theta_l": 1.0},
    "domain": {
        "kind": "maze", "width": 7, "height": 7, "path_slack": 4,
        "instances": [{"connectivity": 0.0, "maze_seed": 71},
                      {"connectivity": 0.5, "maze_seed": 72}],
    },
    "arms": [
        {"name": "std-pso", "explorer": "pso", "guided": False},
        {"name": "ace-pso", "explorer": "pso", "guided": True},
        {"name": "std-ea", "explorer": "ea", "guided": False},
    ],
}

COLD_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from ace.cli import SuiteSpec, orchestrate
suite = SuiteSpec.from_dict(json.loads(sys.argv[2]))
print(json.dumps(orchestrate(suite, Path(sys.argv[3]), save_models=False)))
"""


def without_wall_clock(records):
    return sorted(
        (json.dumps({k: v for k, v in r.items() if k != "wall_clock_seconds"}, sort_keys=True)
         for r in records)
    )


def test_warm_and_cold_processes_write_the_same_records(tmp_path):
    cli._maze_domain.cache_clear()
    suite = SuiteSpec.from_dict(MEMO_SUITE)
    first = orchestrate(suite, tmp_path / "first", save_models=False)
    warm = orchestrate(suite, tmp_path / "warm", save_models=False)
    out = subprocess.run(
        [sys.executable, "-I", "-c", COLD_RUN, str(SRC), json.dumps(MEMO_SUITE),
         str(tmp_path / "cold")],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    cold = json.loads(out)
    assert len(first) == 3 * 2 * 2
    assert without_wall_clock(first) == without_wall_clock(warm) == without_wall_clock(cold)


def maze_spec(maze_seed, path_slack=4, width=5):
    return {"kind": "maze", "width": width, "height": 5, "connectivity": 0.5,
            "maze_seed": maze_seed, "path_slack": path_slack}


def test_equal_maze_specs_share_one_domain_and_chains_are_built_anew():
    domain = build_domain(maze_spec(9001))
    assert build_domain(maze_spec(9001)) is domain  # an equal spec, not the same dict
    assert build_domain(maze_spec(9001, path_slack=5)) is not domain
    assert build_domain(maze_spec(9001, path_slack=None)) is not domain
    [(_, chain)] = cli._domain_instances({"kind": "chain"})
    assert build_domain(chain) is not build_domain(chain)


def test_an_evicted_maze_is_built_anew_and_its_move_table_dropped():
    explorer = pso.PsoExplorer()
    config = ExperimentConfig(population_size=2, max_generations=1)
    first = build_domain(maze_spec(9100, width=6))
    run_standard(config, explorer, first, random.Random(0))
    assert pso.MOVE_TABLES[first]
    assert explorer.initialize(first, config, None).move_table is pso.MOVE_TABLES[first]
    for maze_seed in range(9101, 9117):  # 16 more, each new to the memo
        build_domain(maze_spec(maze_seed, width=6))
    again = build_domain(maze_spec(9100, width=6))
    assert again is not first
    ref, tables = weakref.ref(first), len(pso.MOVE_TABLES)
    del first
    gc.collect()
    assert ref() is None
    assert len(pso.MOVE_TABLES) == tables - 1


class UnhashableGrid(GridStub):
    __hash__ = None  # as an unfrozen dataclass with eq=True has


class UnreferencedGrid:
    """A GridStub behind a wrapper that cannot be weakly referenced."""

    __slots__ = ("_grid",)

    def __init__(self, width, height):
        self._grid = GridStub(width, height)

    def __getattr__(self, name):
        return getattr(self._grid, name)


def swarm_records(domain):
    config = ExperimentConfig(population_size=6, max_generations=8)
    explorer = pso.PsoExplorer(pso.PsoParams(heuristic_weight=2.0))
    _, standard = run_standard(config, explorer, domain, random.Random(8))
    _, _, guided = run_ace(config, explorer, domain, random.Random(8))
    return [{**r.to_dict(), "wall_clock_seconds": None} for r in (standard, guided)]


@pytest.mark.parametrize("make", [UnhashableGrid, UnreferencedGrid], ids=["unhashable", "unreferenced"])
def test_a_domain_that_cannot_key_the_move_tables_runs_with_its_own(make):
    assert swarm_records(make(4, 4)) == swarm_records(GridStub(4, 4))


def test_retained_instance_memory_is_a_few_tables_per_instance():
    instances, kept = retained_instance_memory()
    print_report(f"Retained instance memory ({PYTHON}): {kept} bytes after one std-pso run "
                 f"(max_generations 2) on each of {instances} instances, "
                 f"{kept // instances} per instance")
    assert instances == 8
    # about 0.18 MB per 15x15 instance after a two-generation run
    assert 0 < kept < instances * 1_000_000
