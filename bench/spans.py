"""Outside-in layer tracing for the benchmark.

The program is not edited: each public entry point of an ``ace`` module
is replaced, for the duration of a traced pass, by a wrapper installed
where its caller looks it up (a module global, a name imported into
``cli``, or a class attribute reached through an instance).  A wrapper
opens a span named after its layer.  Spans are aggregated in memory per
name as a call count and a self time (the span's duration minus the
durations of the spans it encloses), so every traced second lands in
exactly one layer.  Exact counters (moves walked, pairs checked, ...)
are read off arguments and results at the same boundaries.

The very hot helpers ``GcaModel.flatten_macro`` and ``pso._aligned``
run millions of times per workload and stay unwrapped; their time is
self time of whichever span calls them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span aggregator: per-name calls and self seconds, plus counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Open spans: names, and the time their children have covered so far.
        self._names = ["<root>"]
        self._child_s = [0.0]

    def span(self, name, fn, before=None, after=None):
        """fn wrapped in a span.  before(args) and after(result, args)
        update counters.  A span re-entered directly from a span of the
        same name (a sampling entry point calling another) is one call."""
        names, child_s = self._names, self._child_s
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if names[-1] != name:
                calls[name] += 1
            if before is not None:
                before(args)
            names.append(name)
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                names.pop()
                self_s[name] += dt - child_s.pop()
                child_s[-1] += dt
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, name, fn):
        """fn wrapped to count calls only, for entry points too hot to time."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _patches(tracer: Tracer, ace) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every traced entry point."""
    cli, chain, ea, gca, maze, pso, stats = (
        ace.cli, ace.chain, ace.ea, ace.gca, ace.maze, ace.pso, ace.stats,
    )
    GcaModel = gca.GcaModel
    counts = tracer.counts
    span = tracer.span

    def path_built(traj, args):
        atomic = args[4].atomic_count
        counts["pso.paths"] += 1
        counts["pso.goal"] += traj.success
        counts["pso.steps"] += traj.steps_used
        counts["pso.macro_strides"] += sum(1 for op in traj.ops if op >= atomic)

    def maze_evaluated(traj, args):
        counts["maze.moves"] += len(traj.atomic_ops)
        counts["maze.wall_hits"] += traj.wall_hits

    def scan_entered(args):
        counts["gca.abstract.pairs_checked"] += len(args[0].weights)

    def scan_done(created, args):
        counts["gca.macros.created"] += len(created)

    def guided_done(result, args):
        model = result[1]
        counts["gca.weights.entries"] += len(model.weights)
        counts["gca.macros.surviving"] += sum(1 for m in model.macros if not m.pruned)

    def serialized(text, args):
        counts["cli.serialize.bytes"] += len(text.encode())

    return [
        # cli: orchestration, per-run set-up and the record export.  The
        # benchmark calls orchestrate/export_results through the module.
        (cli, "orchestrate", span("cli.run", cli.orchestrate)),
        (cli, "_execute_run", span("cli.run", cli._execute_run)),
        (cli, "export_results", span("cli.export", cli.export_results)),
        (gca, "serialize_model", span("cli.serialize", gca.serialize_model, after=serialized)),
        (stats, "summarize", span("stats", stats.summarize)),
        (stats, "format_summary_table", span("stats", stats.format_summary_table)),
        # Domain construction, looked up by build_domain in cli.
        (cli, "generate_maze", span("maze.build", cli.generate_maze)),
        (cli, "MazeDomain", span("maze.build", cli.MazeDomain)),
        (cli, "ChainDomain", span("chain.build", cli.ChainDomain)),
        (chain, "brute_force_optimum", span("chain.optimum", chain.brute_force_optimum)),
        # loop: run_ace / run_standard are imported into cli by name.
        (cli, "run_ace", span("loop", cli.run_ace, after=guided_done)),
        (cli, "run_standard", span("loop", cli.run_standard)),
        # Explorers; run_generation is reached through the instance.
        (ea.EaExplorer, "run_generation", span("ea.generation", ea.EaExplorer.run_generation)),
        (ea, "mutate", span("ea.mutate", ea.mutate)),
        (ea, "select", span("ea.select", ea.select)),
        (pso.PsoExplorer, "run_generation", span("pso.generation", pso.PsoExplorer.run_generation)),
        (pso, "construct_path", span("pso.construct", pso.construct_path, after=path_built)),
        # Domain evaluation.
        (maze.MazeDomain, "evaluate_sequence",
         span("maze.eval", maze.MazeDomain.evaluate_sequence, after=maze_evaluated)),
        (maze.MazeDomain, "evaluate_path",
         span("maze.eval", maze.MazeDomain.evaluate_path, after=maze_evaluated)),
        (chain.ChainDomain, "evaluate_sequence",
         span("chain.eval", chain.ChainDomain.evaluate_sequence)),
        # gca: sampling, learning, abstraction, flattening.
        (GcaModel, "sample_successor", span("gca.sample", GcaModel.sample_successor)),
        (GcaModel, "floored_distribution", span("gca.sample", GcaModel.floored_distribution)),
        (GcaModel, "transition_distribution",
         tracer.counter("gca.distribution", GcaModel.transition_distribution)),
        (GcaModel, "flatten_sequence", span("gca.flatten", GcaModel.flatten_sequence)),
        (GcaModel, "hebbian_pair_update", span("gca.learn", GcaModel.hebbian_pair_update)),
        (GcaModel, "hebbian_trajectory_update",
         span("gca.learn", GcaModel.hebbian_trajectory_update)),
        (GcaModel, "scan_and_abstract",
         span("gca.abstract", GcaModel.scan_and_abstract, before=scan_entered, after=scan_done)),
    ]


@contextmanager
def traced(tracer: Tracer, ace):
    """Install the tracer's wrappers for the duration of the block."""
    patches = _patches(tracer, ace)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
