"""Command-line front end and benchmark orchestration.

Subcommands: run a configured suite, recompute stats from stored
records, solve a chain spec exactly, generate/print a maze, and inspect
a serialized guidance model.  Suite runs derive one stable seed per
(arm, instance, run) so results do not depend on execution order or the
parallelism degree; finished records stream to records.jsonl as they
complete so an aborted suite keeps everything it finished.  Each output
has one writer: a guided run saves its own model file through
ace.gca.save_model, in the process that ran it, and the summary is
rendered once, written to summary.txt and printed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# The interpreter's built-in SHA-256, as random.py takes its SHA-512:
# hashlib would load OpenSSL into every set-up for one digest per run.
try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256  # builds without the built-in hashes

from . import gca, stats
from .chain import ChainDomain, ChainSpec, brute_force_optimum
from .ea import EaExplorer, EaParams
from .errors import AceError, ConfigError, ParseError, check_range, read_fields, read_file
from .errors import read_triples
from .gca import GcaParams
from .loop import ExperimentConfig, RunRecord, load_warm_start, run_ace, run_standard
from .maze import MazeDomain, bfs_shortest_path, check_maze_options, check_maze_shape
from .maze import MOVE_NAMES, generate_maze, genome_bounds, maze_to_text
from .pso import PsoExplorer, PsoParams

# Standard-library modules that only cold paths use (the pool, logging,
# the export's csv and statistics, argparse, traceback) are imported where
# they are first used, so that a set-up does not pay for them.

# Runs in one suite (arms x instances x runs_per_arm), capped so that a
# mistyped count fails at parse time instead of building the task list.
MAX_TASKS = 1_000_000
# Candidate evaluations in one run (population_size x max_generations),
# capped likewise so that a mistyped size fails at parse time instead of
# running without end.  The shipped suites ask for at most 5,000.
MAX_RUN_EVALUATIONS = 10_000_000
# Worker processes of one suite, capped so that a mistyped degree fails
# before any pool exists; a suite never starts more workers than runs.
MAX_PARALLELISM = 64

# records.csv: the task columns, then the scalar fields of RunRecord.
CSV_COLUMNS = [
    "arm", "explorer", "guided", "domain", "maze_id", "connectivity", "run_index", "seed",
    *(f.name for f in dataclasses.fields(RunRecord) if f.name != "best_fitness_by_generation"),
]


# -- suite specification ----------------------------------------------------

# Config keys that differ from the field or parameter they set; every
# other key is the field name itself.
ALIASES = {
    **{key: name for key, _, name in gca.HYPERPARAMETERS},
    "target_bigrams": "rewards",
}
_KEY_OF = {name: key for key, name in ALIASES.items()}


def _schema(src, skip=()) -> dict[str, tuple[str, str]]:
    """Config key -> (field name, annotation) over the fields of a
    dataclass, the schema ace.errors.read_fields takes."""
    return {
        _KEY_OF.get(f.name, f.name): (f.name, f.type)
        for f in dataclasses.fields(src) if f.name not in skip
    }


def _plain(hints: dict[str, str]) -> dict[str, tuple[str, str]]:
    return {key: (key, hint) for key, hint in hints.items()}


EXPLORERS = {"ea": (EaParams, EaExplorer), "pso": (PsoParams, PsoExplorer)}
RUN = _schema(ExperimentConfig, skip=("gca", "warm_start_model"))
GCA = _schema(GcaParams)
CHAIN = {
    **_schema(ChainSpec),
    "target_bigrams": ("rewards", "list"),  # [from, to, reward] triples
    "kind": ("kind", "str"),
}
MAZE = _plain({
    "kind": "str", "width": "int", "height": "int", "path_slack": "int | None",
    "instances": "list",
})
MAZE_INSTANCE = _plain({"connectivity": "float", "maze_seed": "int"})
ARM = _plain({
    "name": "str", "explorer": "str", "guided": "bool", "warm_start_model": "str | None",
    "ea": "dict", "pso": "dict", "run": "dict", "gca": "dict",
})


def parse_chain(doc: dict, where: str = "domain") -> ChainSpec:
    """The validated chain spec of a chain document.  An absent key takes
    the default; a given value is used as given (an empty
    `target_bigrams` plants no pairs).  Each bigram is a [from, to,
    reward] list of two integer ids and a number, and each (from, to)
    pair is listed once; `kind`, if given, is "chain"."""
    values = read_fields(doc, CHAIN, where, ConfigError)
    kind = values.pop("kind", "chain")
    if kind != "chain":
        raise ConfigError(f"{where}.kind must be 'chain', got {kind!r}")
    if "rewards" in values:
        # A copy, since the reader empties the list it reads: the suite's
        # document is parsed again for every task list.
        bigrams = list(values["rewards"])
        rewards = {}
        for at, pair, r in read_triples(bigrams, "float", "reward", f"{where}.target_bigrams",
                                        ConfigError):
            if pair in rewards:
                raise ConfigError(f"{at}: pair {pair} is listed twice")
            rewards[pair] = r
        values["rewards"] = rewards
    spec = ChainSpec(**values)
    spec.validate()
    return spec


def _domain_instances(doc: dict) -> list[tuple[str, dict]]:
    """The checked (instance_id, spec) pairs of a domain section, its one
    reader.  A chain spec holds a ChainSpec.  A maze section lists its
    curated `instances`; each maze spec holds the shape, seed and
    path_slack of one instance, its shape checked here (the maze itself
    is generated inside the run)."""
    kind = doc.get("kind")
    if kind == "chain":
        return [("chain", {"kind": kind, "chain": parse_chain(doc)})]
    if kind != "maze":
        raise ConfigError(f"unknown domain kind {kind!r}")
    values = read_fields(doc, MAZE, "domain", ConfigError, required=("instances",))
    width, height = values.get("width", 15), values.get("height", 15)
    slack = values.get("path_slack")
    check_maze_options(path_slack=slack)
    common = {"kind": kind, "width": width, "height": height, "path_slack": slack}
    instances, seen = [], set()
    for i, inst in enumerate(values["instances"]):
        where = f"domain.instances[{i}]"
        inst = read_fields(inst, MAZE_INSTANCE, where, ConfigError, required=MAZE_INSTANCE)
        check_maze_shape(width, height, inst["connectivity"])
        maze = (inst["connectivity"], inst["maze_seed"])
        if maze in seen:
            raise ConfigError(f"{where}: maze (connectivity, maze_seed) {maze} listed twice")
        seen.add(maze)
        maze_id = f"m{width}x{height}_c{inst['connectivity']}_s{inst['maze_seed']}"
        instances.append((maze_id, {**common, **inst}))
    if not instances:
        raise ConfigError("domain.instances lists no maze instance")
    return instances


def _domain_interface(spec: dict) -> tuple[list[str], tuple[int, int]]:
    """The op names and default genome bounds of the domain of an
    instance spec from _domain_instances, read without building it: a
    chain domain runs the exact solver when built, and a maze's moves are
    MOVE_NAMES.  The maze instances of one suite share both."""
    if spec["kind"] == "chain":
        return spec["chain"].atomic_op_names, spec["chain"].default_genome_bounds
    return list(MOVE_NAMES), genome_bounds(spec["width"], spec["height"])


def build_domain(spec: dict):
    """The domain of one instance spec from _domain_instances: a chain
    built anew, a maze from the process's memo (see _maze_domain)."""
    if spec["kind"] == "chain":
        return ChainDomain(spec["chain"])
    return _maze_domain(
        spec["width"], spec["height"], spec["connectivity"], spec["maze_seed"], spec["path_slack"],
    )


@functools.lru_cache(maxsize=16, typed=True)
def _maze_domain(
    width: int, height: int, connectivity: float, maze_seed: int, path_slack: int | None
):
    """One maze instance, built once while it is among the process's 16
    most recently used: no run changes a domain, so every run of the
    instance reads the same maze and tables and shares one swarm move
    table (see ace.pso.MOVE_TABLES).  generate_maze and MazeDomain are
    looked up in this module at each build, so a wrapper set there sees
    every build."""
    maze = generate_maze(width, height, connectivity, maze_seed)
    return MazeDomain(maze, path_slack=path_slack)


@dataclass
class ArmSpec:
    """One arm, its explorer parameters and run settings checked and
    merged over the suite-wide `run` and `gca` sections."""

    name: str
    explorer: str
    guided: bool
    params: EaParams | PsoParams
    config: ExperimentConfig

    @classmethod
    def from_dict(
        cls, doc: dict, index: int, suite_run: dict, suite_gca: dict, instance: dict
    ) -> "ArmSpec":
        """The checked index-th arm of a suite whose domain is that of the
        instance spec instance (one of _domain_instances)."""
        values = read_fields(
            doc, ARM, f"arms[{index}]", ConfigError, required=("name", "explorer", "guided"))
        name, explorer = values["name"], values["explorer"]
        if not name or not all(c.isalnum() or c in "-_" for c in name):
            raise ConfigError(f"arm name {name!r} must be alphanumeric/-/_")
        where = f"arm {name}"
        if explorer not in EXPLORERS:
            raise ConfigError(f"{where}: unknown explorer kind {explorer!r}")
        for other in EXPLORERS:
            if other != explorer and other in values:
                raise ConfigError(f"{where}: {explorer} arms take no {other!r} section")
        params_cls = EXPLORERS[explorer][0]
        params = params_cls(**read_fields(
            values.get(explorer, {}), _schema(params_cls), f"{where}.{explorer}", ConfigError))
        params.validate()
        op_names, bounds = _domain_interface(instance)
        # What the explorer's check_domain and genome bounds would reject in
        # the first run, rejected before any run builds a domain.
        if explorer == "pso" and instance["kind"] != "maze":
            raise ConfigError(
                f"{where}: a {instance['kind']} domain does not expose the stepwise path "
                "interface that pso arms need")
        if explorer == "ea":
            try:
                params.genome_bounds(bounds)
            except ConfigError as e:
                raise ConfigError(f"{where}: {e}") from None
        run = read_fields(values.get("run", {}), RUN, f"{where}.run", ConfigError)
        arm_gca = read_fields(values.get("gca", {}), GCA, f"{where}.gca", ConfigError)
        config = ExperimentConfig(
            **{**suite_run, **run},
            gca=GcaParams(**{**suite_gca, **arm_gca}),
            warm_start_model=values.get("warm_start_model"),
        )
        config.validate()
        evaluations = config.population_size * config.max_generations
        if evaluations > MAX_RUN_EVALUATIONS:
            raise ConfigError(
                f"{where}: a run makes {evaluations} evaluations "
                f"(population_size x max_generations), over {MAX_RUN_EVALUATIONS}")
        if config.warm_start_model:
            # Read the donor now, so that a bad file or one over another
            # vocabulary than the domain's op_names fails before any run.
            load_warm_start(config.warm_start_model, op_names, where)
        return cls(name, explorer, values["guided"], params, config)


@dataclass
class SuiteSpec:
    runs_per_arm: int
    domain: dict
    arms: list[ArmSpec]
    suite_seed: int = 0
    output_dir: str = "results"
    parallelism: int = 1

    @classmethod
    def from_dict(cls, doc: dict) -> "SuiteSpec":
        """Parse and check a whole suite.  Unknown keys, mistyped values
        and invalid arm settings fail here, before any run starts."""
        top = read_fields(
            doc, SUITE, "suite config", ConfigError, required=("runs_per_arm", "domain", "arms"))
        instances = _domain_instances(top["domain"])
        if not top["arms"]:
            raise ConfigError("arms lists no arm")
        top.pop("notes", None)
        run = read_fields(top.pop("run", {}), RUN, "run", ConfigError)
        gca = read_fields(top.pop("gca", {}), GCA, "gca", ConfigError)
        top["arms"] = [
            ArmSpec.from_dict(a, i, run, gca, instances[0][1]) for i, a in enumerate(top["arms"])
        ]
        spec = cls(**top)
        if len({a.name for a in spec.arms}) != len(spec.arms):
            raise ConfigError("arm names must be unique")
        check_range("runs_per_arm", spec.runs_per_arm, 1)
        _check_parallelism(spec.parallelism)
        tasks = len(spec.arms) * len(instances) * spec.runs_per_arm
        if tasks > MAX_TASKS:
            raise ConfigError(
                f"suite has {tasks} runs (arms x instances x runs_per_arm), over {MAX_TASKS}")
        return spec

    @classmethod
    def from_file(cls, path) -> "SuiteSpec":
        return cls.from_dict(read_file(path, "suite config", gca.finite_json))


# `notes` may hold anything: no check reads an "any" annotation.
SUITE = {**_schema(SuiteSpec), **_plain({"notes": "any", "run": "dict", "gca": "dict"})}


def _check_parallelism(workers: int) -> None:
    """Raise ConfigError unless 1 <= workers <= MAX_PARALLELISM."""
    check_range("parallelism", workers, 1)
    check_range("parallelism", workers, high=MAX_PARALLELISM)


def _open_out(path: Path, newline: str | None = None):
    """path opened to write text, its directory made if need be;
    ConfigError naming the path when either cannot be."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def derive_seed(suite_seed: int, arm_name: str, instance_id: str, run_index: int) -> int:
    """Stable 64-bit run seed; keyed by arm name so filtering arms does
    not reshuffle the seeds of the remaining ones."""
    data = f"{suite_seed}|{arm_name}|{instance_id}|{run_index}".encode()
    return int.from_bytes(_sha256(data).digest()[:8], "big")


def build_tasks(suite: SuiteSpec, arm_filter: str | None = None) -> list[dict]:
    """One task per (arm, instance, run), carrying its arm, instance spec
    and derived seed."""
    instances = _domain_instances(suite.domain)
    tasks = [
        {"arm": arm, "instance_id": instance_id, "instance_spec": spec, "run_index": run_index,
         "seed": derive_seed(suite.suite_seed, arm.name, instance_id, run_index)}
        for arm in suite.arms if arm_filter is None or arm.name == arm_filter
        for instance_id, spec in instances
        for run_index in range(suite.runs_per_arm)
    ]
    if not tasks:
        raise ConfigError(
            f"no runs selected (arm filter {arm_filter!r} matched nothing)"
            if arm_filter
            else "no runs selected"
        )
    return tasks


def _execute_run(task: dict, model_path: Path | None) -> dict:
    """Worker: build the task's domain and explorer and run once.  A
    guided run saves its model to model_path unless that is None."""
    arm = task["arm"]
    domain = build_domain(task["instance_spec"])
    explorer = EXPLORERS[arm.explorer][1](arm.params)
    rng = random.Random(task["seed"])
    if arm.guided:
        _, model, record = run_ace(arm.config, explorer, domain, rng)
        if model_path is not None:
            gca.save_model(model, model_path)
    else:
        _, record = run_standard(arm.config, explorer, domain, rng)
    return {
        "arm": arm.name,
        "explorer": arm.explorer,
        "guided": arm.guided,
        "domain": task["instance_spec"]["kind"],
        "maze_id": task["instance_id"],
        "connectivity": task["instance_spec"].get("connectivity"),
        "run_index": task["run_index"],
        "seed": task["seed"],
        "max_generations": arm.config.max_generations,
        **record.to_dict(),
    }


def orchestrate(
    suite: SuiteSpec,
    out_dir: Path,
    arm_filter: str | None = None,
    parallelism: int | None = None,
    save_models: bool = True,
) -> list[dict]:
    """Run every (arm, instance, run) combination, streaming finished
    records to records.jsonl; each guided run writes its own model file
    unless save_models is off.  On failure the partial records file stays
    in place and an error manifest is written before re-raising.  An
    output directory or records file that cannot be made raises
    ConfigError before any run."""
    import logging

    log = logging.getLogger("ace")
    workers = parallelism if parallelism is not None else suite.parallelism
    _check_parallelism(workers)
    tasks = build_tasks(suite, arm_filter)
    workers = min(workers, len(tasks))
    jsonl = _open_out(out_dir / "records.jsonl")
    records = []
    log.info("starting suite: %d runs, parallelism %d", len(tasks), workers)

    # Where each task's run saves its model: None for a standard run, or
    # for every run when save_models is off.
    model_paths = [
        out_dir / f"gca_{t['arm'].name}_{t['instance_id']}_{t['run_index']}.json"
        if save_models and t["arm"].guided else None for t in tasks
    ]

    def _consume(row: dict, jsonl) -> None:
        records.append(row)
        jsonl.write(json.dumps(row) + "\n")
        jsonl.flush()
        log.info(
            "finished %s/%s run %d: fitness %.1f success=%s",
            row["arm"], row["maze_id"], row["run_index"],
            row["best_fitness"], row["success"],
        )

    try:
        with jsonl:
            if workers <= 1:
                for task, path in zip(tasks, model_paths):
                    _consume(_execute_run(task, path), jsonl)
            else:
                import concurrent.futures

                with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [pool.submit(_execute_run, t, p) for t, p in zip(tasks, model_paths)]
                    try:
                        for fut in concurrent.futures.as_completed(futures):
                            _consume(fut.result(), jsonl)
                    except BaseException:
                        # The runs not yet handed to a worker would only be
                        # thrown away: cancel them.
                        pool.shutdown(cancel_futures=True)
                        raise
    except Exception as e:
        import traceback

        manifest = {
            "error": str(e),
            "traceback": traceback.format_exc(),
            "completed_runs": len(records),
            "total_runs": len(tasks),
        }
        (out_dir / "error_manifest.json").write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        raise
    return records


# -- exports ----------------------------------------------------------------


def export_results(records: list[dict], out_dir: Path, suite_doc: dict | None = None) -> str:
    """Write records.csv / records.json / summary.txt and one best-fitness
    curve file per arm (mean and SD across that arm's runs, padded to the
    configured generation count); the summary text."""
    import csv
    import statistics

    if not records:
        raise ConfigError("no records to export")
    ordered = sorted(records, key=lambda r: (r["arm"], r["maze_id"], r["run_index"]))

    with _open_out(out_dir / "records.csv", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in ordered:
            writer.writerow([r[c] for c in CSV_COLUMNS])

    doc = {"suite": suite_doc or {}, "records": ordered}
    with _open_out(out_dir / "records.json") as f:
        json.dump(doc, f, indent=1)

    arms = sorted({r["arm"] for r in ordered})
    for arm in arms:
        arm_records = [r for r in ordered if r["arm"] == arm]
        horizon = max(r["max_generations"] for r in arm_records)
        curves = []
        for r in arm_records:
            h = r["best_fitness_by_generation"]
            curves.append(h + [h[-1]] * (horizon - len(h)) if h else [0.0] * horizon)
        with _open_out(out_dir / f"curves_{arm}.csv", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["generation", "mean_best_fitness", "sd_best_fitness"])
            for g in range(horizon):
                col = [c[g] for c in curves]
                sd = statistics.stdev(col) if len(col) > 1 else 0.0
                writer.writerow([g + 1, statistics.fmean(col), sd])
    return _write_summary(ordered, out_dir)


def _write_summary(records: list[dict], out_dir: Path) -> str:
    """render_summary(records), written to out_dir/summary.txt."""
    text = render_summary(records)
    with _open_out(out_dir / "summary.txt") as f:
        f.write(text)
    return text


def render_summary(records: list[dict]) -> str:
    parts = []
    by_arm = stats.summarize(records, ["arm"])
    parts.append("Per arm:\n" + stats.format_summary_table(by_arm, ["arm"]))
    if any(r["connectivity"] is not None for r in records):
        by_conn = stats.summarize(records, ["arm", "connectivity"])
        parts.append(
            "Per arm and connectivity:\n"
            + stats.format_summary_table(by_conn, ["arm", "connectivity"])
        )
    return "\n".join(parts)


# -- subcommands --------------------------------------------------------------


def cmd_run(args) -> int:
    suite = SuiteSpec.from_file(args.config)
    if args.seed is not None:
        suite.suite_seed = args.seed
    out_dir = Path(args.out) if args.out else Path(suite.output_dir)
    records = orchestrate(
        suite,
        out_dir,
        arm_filter=args.arm,
        parallelism=args.parallelism,
        save_models=not args.no_models,
    )
    print(export_results(records, out_dir, suite_doc={"suite_seed": suite.suite_seed}))
    print(f"wrote {len(records)} records to {out_dir}")
    return 0


# The record fields a summary reads, with the type of their values: the
# group keys render_summary passes to stats.summarize, then
# stats.RECORD_FIELDS.
SUMMARY_RECORD = _plain({"arm": "str", "connectivity": "float | None", **stats.RECORD_FIELDS})


def _summary_records(doc) -> list[dict]:
    """The records of a records file (an object with a "records" list, or
    the list itself); ParseError naming the row and field a summary would
    trip on: a missing field or a value of the wrong type."""
    records = doc.get("records") if isinstance(doc, dict) else doc
    if not isinstance(records, list):
        raise ParseError("records file: records must be a list of objects")
    for i, row in enumerate(records):
        # A row may hold fields that no summary reads: those go unchecked.
        if isinstance(row, dict):
            row = {key: row[key] for key in SUMMARY_RECORD if key in row}
        read_fields(row, SUMMARY_RECORD, f"records file: records[{i}]", ParseError,
                    required=SUMMARY_RECORD)
    return records


def cmd_stats(args) -> int:
    records = _summary_records(read_file(args.records, "records file", gca.finite_json))
    print(_write_summary(records, Path(args.out)) if args.out else render_summary(records))
    return 0


def cmd_oracle(args) -> int:
    if args.spec == "default":
        spec = ChainSpec()
    else:
        spec = parse_chain(read_file(args.spec, "chain spec", gca.finite_json), "chain spec")
    value, witness = brute_force_optimum(spec)
    print(f"alphabet={spec.alphabet_size} length={spec.sequence_length}")
    print(f"optimum={value!r}")
    print("witness=" + " ".join(f"t{t}" for t in witness))
    return 0


def cmd_maze(args) -> int:
    width = args.size if args.width is None else args.width
    height = args.size if args.height is None else args.height
    maze = generate_maze(width, height, args.connectivity, args.seed)
    text = maze_to_text(maze)
    length, _ = bfs_shortest_path(maze)
    if args.out:
        with _open_out(Path(args.out)) as f:
            f.write(text)
        print(f"wrote maze to {args.out}")
    else:
        print(text, end="")
    print(f"open edges: {len(maze.open_edges)}  shortest path: {length}")
    return 0


def cmd_model(args) -> int:
    model = gca.load_model(args.path)
    print(f"atomic ops: {' '.join(model.atomic_ops)}")
    print(f"vocabulary: {model.vocab_size} ({len(model.macros)} macros, "
          f"{len(model.live_macros())} active)")
    print("params: " + " ".join(
        f"{key}={getattr(model.params, name)}" for key, _, name in gca.HYPERPARAMETERS))
    print(f"stored weights: {len(model.weights)}  support entries: {len(model.weights.support())}")
    top = sorted(model.weights.items(), key=lambda kv: -kv[1])[:5]
    for (i, j), w in top:
        print(f"  W[{i},{j}] = {w:.4f}")
    for m in model.macros:
        flat = model.flatten_macro(m.id)
        names = ">".join(model.atomic_ops[x] for x in flat)
        state = "pruned" if m.pruned else "active"
        print(
            f"  macro {m.id} = ({m.left},{m.right}) -> {names} "
            f"[{state}, uses={m.uses}, ok={m.successful_uses}]"
        )
    print("model OK")
    return 0


# -- entry point --------------------------------------------------------------


def build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ConfigError(f"{message}\n{self.format_usage()}")

    parser = _Parser(prog="ace-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark suite")
    p_run.add_argument("--config", required=True, help="suite config JSON")
    p_run.add_argument("--seed", type=int, default=None, help="override the suite seed")
    p_run.add_argument("--parallelism", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--arm", default=None, help="run only the named arm")
    p_run.add_argument("--no-models", action="store_true", help="skip model snapshots")
    p_run.set_defaults(func=cmd_run)

    p_stats = sub.add_parser("stats", help="recompute summaries from stored records")
    p_stats.add_argument("--records", required=True, help="records.json path")
    p_stats.add_argument("--out", default=None, help="directory for summary.txt")
    p_stats.set_defaults(func=cmd_stats)

    p_oracle = sub.add_parser("oracle", help="solve a chain spec exactly")
    p_oracle.add_argument("--spec", default="default", help="'default' or a JSON file")
    p_oracle.set_defaults(func=cmd_oracle)

    p_maze = sub.add_parser("maze", help="generate and print a maze")
    p_maze.add_argument("--size", type=int, default=15)
    p_maze.add_argument("--width", type=int, default=None)
    p_maze.add_argument("--height", type=int, default=None)
    p_maze.add_argument("--connectivity", type=float, default=0.0)
    p_maze.add_argument("--seed", type=int, default=0)
    p_maze.add_argument("--out", default=None)
    p_maze.set_defaults(func=cmd_maze)

    p_model = sub.add_parser("model", help="inspect/validate a serialized model")
    p_model.add_argument("--path", required=True)
    p_model.set_defaults(func=cmd_model)
    return parser


def main(argv=None) -> int:
    name = os.environ.get("ACE_LOG")
    if name is not None:
        import logging

        # A name that is no level (`not-a-level`, or `basic_format`, whose
        # attribute is a format string) falls back to WARNING.  The level
        # is the `ace` logger's, set on every call; basicConfig only adds
        # a stderr handler where the root logger has none.
        level = getattr(logging, name.upper(), None)
        logging.getLogger("ace").setLevel(level if type(level) is int else logging.WARNING)
        logging.basicConfig()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AceError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        import traceback

        print(f"runtime failure: {e}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
