"""Suite benchmark for ace-bench.

Drives seeded suite runs through the same ``ace.cli`` orchestration that
``ace-bench run`` uses, serially in one process, and reports end-to-end
run cost and solution quality.  With ``--trace 1`` it also runs the work
once with every layer's public entry points wrapped (see spans.py) and
reports per-layer self times and exact counts instead.

    python3 bench/run.py --workload maze-pso --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``ace`` from
``src/``.  Every line but the last is a human-readable report; the last
is one JSON object with the keys correct, attempted, failed and metrics.

Workloads (why each was chosen is in NOTES.md):
  maze-pso    the 8 curated 15x15 mazes, arms std-pso + ace-pso
  maze-ea     the same mazes, arms std-ea + ace-ea
  chain-wide  generated 64-token, length-48 chains with 24 planted pairs,
              arms std-ea + ace-ea

A workload seed fixes everything the program receives: the suite seed of
every round and, for chain-wide, each round's planted pairs (a fresh chain
per round, so that no single draw of pairs sets a run's cost or quality).
One round is one orchestrate call per arm, each running its arm once per
instance.  The rounds are fixed by (workload, seed, seconds), sized so
that the pass lasts about --seconds at the speed of the commit that
defined the benchmark; both commits of a comparison do identical work.

End-to-end times are medians over the rounds, scaled to a fixed machine
speed by a reference job timed between the rounds (NOTES.md, Stability):
the shared VM this was written on drifts in speed by up to 1.6x over
minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Seconds one round took when the benchmark was defined (2-core VM,
# serial); a pass runs round(seconds / this) rounds, at least one.
ROUND_SECONDS = {"maze-pso": 4.2, "maze-ea": 5.5, "chain-wide": 1.4}
# Median seconds of reference_job() on that VM, and how many times it
# runs at each probe.  End-to-end times are scaled to this speed.
REFERENCE_SECONDS = 0.0375
REFERENCE_REPEATS = 3
FLOAT_TOL = 1e-9

CHAIN_ALPHABET = 64
CHAIN_LENGTH = 48
CHAIN_PAIRS = 24
CHAIN_NOISE = 0.2
MAZE_ARMS = {"maze-pso": ("std-pso", "ace-pso"), "maze-ea": ("std-ea", "ace-ea")}

END_TO_END_UNITS = {
    "setup_s": "s",
    "suite_s": "s",
    "guided_ms_per_run": "ms",
    "standard_ms_per_run": "ms",
    "guided_opt_ratio": "fraction",
    "standard_opt_ratio": "fraction",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and their units.  Self times and counts are totals
# over the traced pass; success rates and failed_frac cover both passes.
PER_LAYER_UNITS = {
    "pso.construct.calls": "count",
    "pso.construct.self_ms": "ms",
    "pso.steps": "count",
    "pso.macro_strides": "count",
    "pso.goal_ratio": "fraction",
    "pso.generation.self_ms": "ms",
    "maze.eval.calls": "count",
    "maze.eval.self_ms": "ms",
    "maze.moves": "count",
    "maze.wall_hit_ratio": "fraction",
    "maze.build.self_ms": "ms",
    "gca.sample.calls": "count",
    "gca.distribution.calls": "count",
    "gca.sample.self_ms": "ms",
    "gca.flatten.self_ms": "ms",
    "gca.learn.calls": "count",
    "gca.learn.self_ms": "ms",
    "gca.weights.entries": "count",
    "gca.abstract.calls": "count",
    "gca.abstract.self_ms": "ms",
    "gca.abstract.pairs_checked": "count",
    "gca.macros.created": "count",
    "gca.macros.survival": "fraction",
    "ea.generation.self_ms": "ms",
    "ea.mutate.self_ms": "ms",
    "ea.select.self_ms": "ms",
    "chain.build.self_ms": "ms",
    "chain.eval.self_ms": "ms",
    "chain.optimum.calls": "count",
    "chain.optimum.self_ms": "ms",
    "loop.self_ms": "ms",
    "loop.generations": "count",
    "cli.run.self_ms": "ms",
    "cli.serialize.self_ms": "ms",
    "cli.serialize.bytes": "bytes",
    "cli.export.self_ms": "ms",
    "stats.self_ms": "ms",
    "guided_success_rate": "fraction",
    "standard_success_rate": "fraction",
    "failed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
    "bench.reference_ms": "ms",
}

# Time spent in one set-up: import, suite parse and task expansion, as
# `ace-bench run` does them before its first run.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ace import cli
cli.build_tasks(cli.SuiteSpec.from_file(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def reference_job() -> float:
    """Seconds taken by a fixed pure-Python job that uses the interpreter
    the way the program's inner loops do: tuple-keyed dict updates, float
    arithmetic and a keyed sort.  It does not touch the program, so its
    time tracks only the speed of the machine."""
    t0 = time.perf_counter()
    rng = random.Random(12345)
    seq = [rng.randrange(96) for _ in range(4000)]
    weights: dict = {}
    for rep in range(16):
        for a, b in zip(seq, seq[1:]):
            key = (a, b)
            weights[key] = weights.get(key, 0.0) * 0.99 + 0.01 * (a - b)
        seq = sorted(seq, key=lambda x: (x * 7919 + rep) % 97)
    return time.perf_counter() - t0


class BenchError(Exception):
    """The benchmark cannot run here: the program's sources are missing."""


# -- workload generation ----------------------------------------------------


def _frozen_suites() -> dict:
    with open(BENCH_DIR / "suites.json", encoding="utf-8") as f:
        return json.load(f)


def chain_domain(rng: random.Random) -> dict:
    """Planted pairs and their rewards."""
    a = CHAIN_ALPHABET
    pairs = rng.sample([(i, j) for i in range(a) for j in range(a) if i != j], CHAIN_PAIRS)
    return {
        "kind": "chain",
        "alphabet_size": a,
        "sequence_length": CHAIN_LENGTH,
        "target_bigrams": [[i, j, float(rng.randint(1, 5))] for i, j in pairs],
        "noise_penalty": CHAIN_NOISE,
    }


def round_docs(workload: str, seed: int, rounds: int) -> list[dict]:
    """The suite of each round; round r does not depend on the number of
    rounds, so a longer pass extends a shorter one."""
    frozen = _frozen_suites()
    docs = []
    for r in range(rounds):
        rng = random.Random(f"{workload}|{seed}|{r}")
        if workload == "chain-wide":
            doc = dict(frozen["chain"], domain=chain_domain(rng))
        else:
            doc = dict(frozen["maze"])
            doc["arms"] = [a for a in doc["arms"] if a["name"] in MAZE_ARMS[workload]]
        doc.update(suite_seed=rng.getrandbits(63), runs_per_arm=1, parallelism=1)
        docs.append(doc)
    return docs


# -- references for correctness and quality ---------------------------------


def _maze_shortest(maze) -> int:
    """Breadth-first shortest path over the maze's open edges, written
    independently of the program's own solver."""
    adj: dict = {}
    for a, b in maze.open_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    dist = {maze.start: 0}
    q = deque([maze.start])
    while q:
        cell = q.popleft()
        for nxt in adj.get(cell, ()):
            if nxt not in dist:
                dist[nxt] = dist[cell] + 1
                q.append(nxt)
    return dist[maze.goal]


def references(ace, suite) -> dict[str, float]:
    """Best achievable fitness per instance id: the DP optimum for a
    chain, success_base - step_cost * shortest path for a maze."""
    refs = {}
    for instance_id, spec in ace.cli._domain_instances(suite.domain):
        if spec["kind"] == "chain":
            domain = ace.cli.build_domain(spec)
            refs[instance_id] = domain.optimum
        else:
            maze = ace.maze.generate_maze(
                spec["width"], spec["height"], spec["connectivity"], spec["maze_seed"]
            )
            fit = spec.get("fitness", {})
            refs[instance_id] = fit.get("success_base", 10000.0) - fit.get(
                "step_cost", 10.0
            ) * _maze_shortest(maze)
    return refs


def check_record(rec: dict, ref: float, model_json: str | None, roundtrip) -> str | None:
    """The first correctness violation in one run's outputs, or None."""
    if rec["domain"] == "chain":
        if rec["best_fitness"] > ref + FLOAT_TOL:
            return f"chain best fitness {rec['best_fitness']} exceeds the optimum {ref}"
    elif rec["success"]:
        if rec["path_efficiency"] is None or rec["path_efficiency"] > 1 + FLOAT_TOL:
            return f"path efficiency {rec['path_efficiency']} on a success"
        if rec["best_fitness"] > ref + FLOAT_TOL:
            return f"maze best fitness {rec['best_fitness']} exceeds the reference {ref}"
    if rec["guided"]:
        if model_json is None:
            return "guided run saved no model"
        if roundtrip(model_json) != model_json:
            return "model JSON does not survive deserialize -> serialize"
    return None


def fingerprint(records: list[dict]) -> str:
    """SHA-256 of the sorted records without their wall-clock field."""
    lines = sorted(
        json.dumps({k: v for k, v in r.items() if k != "wall_clock_seconds"}, sort_keys=True)
        for r in records
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- one pass over the rounds -----------------------------------------------


def run_pass(ace, suites: list, refs: list[dict], out_dir: Path, roundtrip, probe=None) -> dict:
    """Every round, one timed orchestrate call per arm, then the export.

    Each run's outputs are checked between the timed calls; roundtrip is
    the untraced deserialize -> serialize of a model.  probe, if given, is
    called before every round and after the last one, outside the timed
    calls.  Returns the records (with their round), the runs attempted,
    one message per failed run, other problems, (seconds, guided, runs,
    round) of every orchestrate call, the export seconds, the busy seconds
    (calls plus export), the probe results and the fingerprint.
    """
    cli = ace.cli
    records, failed, problems, calls, probes = [], [], [], [], []
    attempted = 0
    for r, suite in enumerate(suites):
        if probe is not None:
            probes.append(probe())
        n_instances = len(refs[r])
        round_dir = out_dir / f"round{r}"
        for arm in suite.arms:
            attempted += n_instances
            t0 = time.perf_counter()
            try:
                recs = cli.orchestrate(
                    suite, round_dir, arm_filter=arm.name, parallelism=1, save_models=True
                )
            except Exception as e:  # noqa: BLE001 - a raising run is counted, not fatal
                failed.extend([f"round {r} {arm.name}: {type(e).__name__}: {e}"] * n_instances)
                continue
            calls.append((time.perf_counter() - t0, arm.guided, len(recs), r))
            failed.extend([f"round {r} {arm.name}: run missing"] * (n_instances - len(recs)))
            for rec in recs:
                model = round_dir / f"gca_{rec['arm']}_{rec['maze_id']}_{rec['run_index']}.json"
                problem = check_record(
                    rec,
                    refs[r][rec["maze_id"]],
                    model.read_text(encoding="utf-8") if model.exists() else None,
                    roundtrip,
                )
                if problem:
                    failed.append(f"round {r} {rec['arm']}/{rec['maze_id']}: {problem}")
                rec["_round"] = r
                records.append(rec)
    if probe is not None:
        probes.append(probe())
    plain = [{k: v for k, v in rec.items() if k != "_round"} for rec in records]
    t0 = time.perf_counter()
    try:
        cli.export_results(plain, out_dir / "export", suite_doc={"suite_seed": suites[0].suite_seed})
    except Exception as e:  # noqa: BLE001
        problems.append(f"export: {type(e).__name__}: {e}")
    export_s = time.perf_counter() - t0
    return {"records": records, "attempted": attempted, "failed": failed,
            "problems": problems, "calls": calls, "export_s": export_s,
            "busy_s": sum(c[0] for c in calls) + export_s, "probes": probes,
            "fingerprint": fingerprint(plain)}


# -- metrics ------------------------------------------------------------------


def probe_machine(suite_path: Path) -> tuple[float, list[float]]:
    """One set-up and REFERENCE_REPEATS reference jobs, in seconds."""
    return measure_setup(suite_path), [reference_job() for _ in range(REFERENCE_REPEATS)]


def measure_setup(suite_path: Path) -> float:
    """One set-up in a fresh interpreter, as the interpreter times it."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(suite_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def machine_scale(result: dict) -> float:
    """REFERENCE_SECONDS over the median reference job of the pass: the
    factor that brings a time measured in this pass to the speed of the
    machine the benchmark was defined on."""
    return REFERENCE_SECONDS / statistics.median(t for _, jobs in result["probes"] for t in jobs)


def end_to_end(result: dict, refs: list[dict]) -> dict[str, float]:
    """Times are medians over the rounds, so that neither a short slow
    spell of the machine nor one costly chain sets them, and they are
    scaled by machine_scale, so that a slow or fast spell spanning the
    whole pass does not set them either.  setup_s is the median of the
    set-ups measured between the rounds; suite_s is the rounds at their
    median busy time plus the export; a mode's ms per run is the median
    over its calls of call time / runs in the call."""
    scale = machine_scale(result)
    round_s: dict[int, float] = {}
    for seconds, _, _, r in result["calls"]:
        round_s[r] = round_s.get(r, 0.0) + seconds
    rounds_s = len(round_s) * statistics.median(round_s.values()) if round_s else 0.0
    metrics = {
        "setup_s": scale * statistics.median(s for s, _ in result["probes"]),
        "suite_s": scale * (rounds_s + result["export_s"]),
    }
    for guided, label in ((True, "guided"), (False, "standard")):
        per_run = [c[0] / c[2] for c in result["calls"] if c[1] == guided and c[2]]
        recs = [r for r in result["records"] if r["guided"] == guided]
        metrics[f"{label}_ms_per_run"] = (
            scale * 1000.0 * statistics.median(per_run) if per_run else 0.0
        )
        metrics[f"{label}_opt_ratio"] = (
            statistics.fmean(r["best_fitness"] / refs[r["_round"]][r["maze_id"]] for r in recs)
            if recs else 0.0
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def success_rates(result: dict) -> dict[str, float]:
    out = {}
    for guided, label in ((True, "guided"), (False, "standard")):
        recs = [r for r in result["records"] if r["guided"] == guided]
        out[f"{label}_success_rate"] = (
            sum(1 for r in recs if r["success"]) / len(recs) if recs else 0.0
        )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: spans.Tracer, traced_s: float, untraced_s: float, scale: float
) -> dict[str, float]:
    """Layer metrics of the traced pass, unscaled; untraced_s is the busy
    time of the untraced pass over the same rounds, the base of the
    overhead, and scale its machine_scale."""
    calls, counts = tracer.calls, tracer.counts
    metrics = {}
    for name in PER_LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "self_ms":
            metrics[name] = 1000.0 * tracer.self_s.get(layer, 0.0)
        elif kind == "calls":
            metrics[name] = calls.get(layer, 0)
        else:
            metrics[name] = counts.get(name, 0)
    metrics["loop.generations"] = calls.get("ea.generation", 0) + calls.get("pso.generation", 0)
    metrics["pso.goal_ratio"] = _ratio(counts.get("pso.goal", 0), counts.get("pso.paths", 0))
    metrics["maze.wall_hit_ratio"] = _ratio(
        counts.get("maze.wall_hits", 0), counts.get("maze.moves", 0)
    )
    metrics["gca.macros.survival"] = _ratio(
        counts.get("gca.macros.surviving", 0), counts.get("gca.macros.created", 0)
    )
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.coverage_frac"] = sum(tracer.self_s.values()) / traced_s
    metrics["bench.reference_ms"] = 1000.0 * REFERENCE_SECONDS / scale
    return metrics


# -- entry point --------------------------------------------------------------


def import_program():
    if not (SRC / "ace" / "cli.py").is_file():
        raise BenchError(f"no program sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ace
    import ace.cli

    return ace


def report(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:28s} {value!r:>24} {units[name]}")


def run(args) -> dict:
    ace = import_program()
    serialize, deserialize = ace.gca.serialize_model, ace.gca.deserialize_model

    def roundtrip(text: str) -> str:
        return serialize(deserialize(text))

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    docs = round_docs(args.workload, args.seed, rounds)
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH_DIR) as tmp:
        out_dir = Path(tmp)
        suite_path = out_dir / "suite.json"
        suite_path.write_text(json.dumps(docs[0], indent=1), encoding="utf-8")
        suites = [ace.cli.SuiteSpec.from_dict(doc) for doc in docs]
        refs = [references(ace, suite) for suite in suites]
        problems = [
            f"round {r} {k}: optimum {v} <= 0"
            for r, ref in enumerate(refs) for k, v in ref.items() if v <= 0
        ]
        plain = run_pass(
            ace, suites, refs, out_dir / "untraced", roundtrip, lambda: probe_machine(suite_path)
        )
        e2e = end_to_end(plain, refs)
        scale = machine_scale(plain)
        passes = [plain]
        print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
              f"{plain['attempted']} runs, busy {plain['busy_s']:.2f} s")
        print(f"reference job {1000.0 * REFERENCE_SECONDS / scale:.2f} ms (median), "
              f"end-to-end times scaled by {scale:.4f}")
        print(f"fingerprint {plain['fingerprint']}")
        if args.trace:
            tracer = spans.Tracer()
            with spans.traced(tracer, ace):
                traced = run_pass(ace, suites, refs, out_dir / "traced", roundtrip)
            passes.append(traced)
            print(f"traced fingerprint {traced['fingerprint']}, busy {traced['busy_s']:.2f} s")
            if traced["fingerprint"] != plain["fingerprint"]:
                problems.append("tracing changed the result fingerprint")

    attempted = sum(p["attempted"] for p in passes)
    failed = [f for p in passes for f in p["failed"]]
    problems += [x for p in passes for x in p["problems"]]
    rates = success_rates(plain)
    report("end-to-end (untraced pass):", e2e, END_TO_END_UNITS)
    if args.trace:
        metrics = per_layer(tracer, traced["busy_s"], plain["busy_s"], scale)
        metrics.update(rates, failed_frac=len(failed) / attempted)
        units = PER_LAYER_UNITS
        report("per-layer (totals over the traced pass):", metrics, units)
    else:
        metrics, units = e2e, END_TO_END_UNITS
        report("quality and failures:", dict(rates, failed_frac=len(failed) / attempted),
               PER_LAYER_UNITS)
    for problem in problems + failed:
        print(f"FAILED: {problem}")
    return {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
