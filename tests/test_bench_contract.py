"""The benchmark's layer trace (bench/spans.py) wraps public entry points
of the package by name, and its quality references (bench/run.py) read
the instance specs of ace.cli.  Running both here makes a refactor that
removes or reshapes what they use fail the test suite rather than the
benchmark.  The suite document of each workload is parsed here too
(tests/test_cli.py parses each shipped config), so that removing a key
one of them still sets fails the test suite rather than a benchmark
run.  Round 0 of each workload at seed 1 is also run here and its
record fingerprint pinned, so that a change meant to keep the
benchmark's results bit-identical is checked on the benchmark's own
workloads, on every Python version the tests run on.  Nothing under
bench/ is changed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import ace
from ace.cli import SuiteSpec, _domain_instances, build_domain, build_tasks, orchestrate
from ace.maze import bfs_shortest_path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# `bench/run.py --workload W --seed 1` round 0: its record count and the
# fingerprint of its records (std and ace arms on the eight curated mazes,
# or on one generated chain).
ROUND0_FINGERPRINTS = {
    "maze-pso": (16, "f7983a38e4ab14fe5c49fb0e782b8bf688d6e2a96c1cb2933687db3b877057ca"),
    "maze-ea": (16, "a19d73ac1858b3b39048dfca1d91e9be9ab96abfa466ceccdf537bbb0bc35912"),
    "chain-wide": (2, "76a4773bb35f2bb89d9c1d9a6c0f6d052c6fd4544bf375baa874d77ebb51bc7b"),
}


def load_bench(name, alias):
    spec = importlib.util.spec_from_file_location(alias, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench("spans", "bench_spans")


def tiny_maze_suite(out):
    return {
        "runs_per_arm": 1,
        "output_dir": str(out),
        "run": {"population_size": 4, "max_generations": 4, "abstraction_period": 2},
        "gca": {"lambda": 0.05},
        "domain": {"kind": "maze", "width": 5, "height": 5,
                   "instances": [{"connectivity": 0.3, "maze_seed": 1}]},
        "arms": [
            {"name": "ace-pso", "explorer": "pso", "guided": True},
            {"name": "ace-ea", "explorer": "ea", "guided": True},
            {"name": "std-pso", "explorer": "pso", "guided": False},
        ],
    }


def test_traced_pass_installs_and_restores_every_span(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    targets = [(owner, attr) for owner, attr, _ in spans._patches(spans.Tracer(), ace)]
    originals = [vars(owner)[attr] for owner, attr in targets]

    with spans.traced(tracer, ace):
        assert all(vars(o)[a] is not f for (o, a), f in zip(targets, originals))
        orchestrate(SuiteSpec.from_dict(tiny_maze_suite(tmp_path)), tmp_path)

    assert all(vars(o)[a] is f for (o, a), f in zip(targets, originals))
    for name in ("cli.run", "loop", "pso.construct", "ea.generation", "maze.eval",
                 "gca.sample", "gca.learn", "gca.flatten", "gca.abstract", "cli.serialize"):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["pso.paths"] == tracer.calls["pso.construct"]


def test_references_cover_every_instance(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports spans
    run = load_bench("run", "bench_run")
    # The suite document of every workload parses and builds its tasks.
    docs = [run.round_docs(w, 1, 1)[0] for w in ("maze-pso", "maze-ea", "chain-wide")]
    for suite in map(SuiteSpec.from_dict, [tiny_maze_suite(tmp_path), *docs]):
        refs = run.references(ace, suite)
        assert set(refs) == {t["instance_id"] for t in build_tasks(suite)}
        assert all(ref > 0 for ref in refs.values())
        # Each reference is the program's own best score: the fitness of
        # a shortest path on a maze, the exact optimum on a chain.
        for instance_id, spec in _domain_instances(suite.domain):
            domain = build_domain(spec)
            if spec["kind"] == "chain":
                assert refs[instance_id] == domain.optimum
            else:
                _, moves = bfs_shortest_path(domain.maze)
                assert refs[instance_id] == domain.evaluate_sequence(moves, moves).fitness

@pytest.mark.parametrize("workload", sorted(ROUND0_FINGERPRINTS, reverse=True))
def test_round_zero_fingerprint(workload, tmp_path, monkeypatch):
    # One orchestrate call per arm, as the benchmark's timed pass makes them.
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports spans
    run = load_bench("run", "bench_run")
    suite = SuiteSpec.from_dict(run.round_docs(workload, 1, 1)[0])
    records = []
    for arm in suite.arms:
        records += orchestrate(
            suite, tmp_path, arm_filter=arm.name, parallelism=1, save_models=True
        )
    count, fingerprint = ROUND0_FINGERPRINTS[workload]
    assert len(records) == count
    assert run.fingerprint(records) == fingerprint
