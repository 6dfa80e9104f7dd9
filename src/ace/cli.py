"""Command-line front end and benchmark orchestration.

Subcommands: run a configured suite, recompute stats from stored
records, solve a chain spec exactly, generate/print a maze, and inspect
a serialized guidance model.  Suite runs derive one stable seed per
(arm, instance, run) so results do not depend on execution order or the
parallelism degree; finished records stream to records.jsonl as they
complete so an aborted suite keeps everything it finished.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import inspect
import json
import logging
import os
import random
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from . import gca, stats
from .chain import ChainDomain, ChainSpec, brute_force_optimum
from .ea import EaExplorer, EaParams
from .errors import AceError, ConfigError, ParseError
from .gca import GcaParams, GcaThresholds
from .loop import ExperimentConfig, run_ace, run_standard
from .maze import MazeDomain, bfs_shortest_path, check_maze_shape, generate_maze, maze_to_text
from .pso import PsoExplorer, PsoParams

log = logging.getLogger("ace")

CSV_COLUMNS = [
    "arm",
    "explorer",
    "guided",
    "domain",
    "maze_id",
    "connectivity",
    "run_index",
    "seed",
    "success",
    "best_fitness",
    "success_generation",
    "path_efficiency",
    "macros_created",
    "macros_surviving",
    "mean_macro_effectiveness",
    "hebbian_updates",
    "generations_run",
    "wall_clock_seconds",
]


# -- suite specification ----------------------------------------------------

# Config keys that differ from the field or parameter they set; every
# other key is the field name itself.
ALIASES = {
    "tau": "temperature",
    "epsilon": "exploration_floor",
    "lambda": "learning_rate",
    "gamma": "decay",
    "theta_w": "weight_min",
    "theta_s": "support_min",
    "theta_l": "lift_min",
    "theta_eff": "effectiveness_min",
    "target_bigrams": "rewards",
}
_KEY_OF = {name: key for key, name in ALIASES.items()}

# Checkable value types by annotation (`list[...]` checks the list); ints
# also pass where floats go.
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict, "list": list}


def _schema(*sources, skip=()) -> dict[str, tuple[str, str]]:
    """Config key -> (field name, annotation) over the fields of
    dataclasses and the keyword-only parameters of classes."""
    schema = {}
    for src in sources:
        if dataclasses.is_dataclass(src):
            items = [(f.name, f.type) for f in dataclasses.fields(src)]
        else:
            params = inspect.signature(src).parameters.values()
            items = [(p.name, p.annotation) for p in params if p.kind is p.KEYWORD_ONLY]
        for name, hint in items:
            if name not in skip:
                schema[_KEY_OF.get(name, name)] = (name, hint)
    return schema


def _plain(hints: dict[str, str]) -> dict[str, tuple[str, str]]:
    return {key: (key, hint) for key, hint in hints.items()}


EXPLORERS = {"ea": (EaParams, EaExplorer), "pso": (PsoParams, PsoExplorer)}
RUN = _schema(ExperimentConfig, skip=("gca", "warm_start_model"))
GCA = _schema(GcaParams, GcaThresholds, skip=("thresholds",))
_THRESHOLDS = {f.name for f in dataclasses.fields(GcaThresholds)}
CHAIN_OPTIONS = _schema(ChainDomain)
CHAIN = {
    **_schema(ChainSpec),
    **CHAIN_OPTIONS,
    "target_bigrams": ("rewards", "list"),  # [from, to, reward] triples
    "kind": ("kind", "str"),
}
FITNESS = _schema(MazeDomain, skip=("path_slack",))
MAZE = _plain({
    "kind": "str", "width": "int", "height": "int", "path_slack": "int | None",
    "fitness": "dict", "instances": "list", "connectivity_levels": "list",
    "mazes_per_level": "int", "maze_seed_base": "int",
})
MAZE_INSTANCE = _plain({"connectivity": "float", "maze_seed": "int"})
ARM = _plain({
    "name": "str", "explorer": "str", "guided": "bool", "warm_start_model": "str | None",
    "ea": "dict", "pso": "dict", "run": "dict", "gca": "dict",
})


def _check_keys(doc, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(allowed))})"
        )


def _read(doc, schema: dict[str, tuple[str, str]], where: str, required=()) -> dict:
    """Field name -> value for a config section; unknown keys, missing
    required keys and values of the wrong type raise ConfigError.  Ints
    given for floats widen."""
    _check_keys(doc, schema, where)
    for key in required:
        if key not in doc:
            raise ConfigError(f"{where} missing required field {key!r}")
    values = {}
    for key, value in doc.items():
        name, hint = schema[key]
        base, _, rest = hint.partition(" | ")
        kind = _TYPES.get(base.partition("[")[0])
        if kind is not None and not (value is None and rest == "None"):
            if not isinstance(value, kind) or isinstance(value, bool) != (base == "bool"):
                raise ConfigError(f"{where}.{key} must be {hint}, got {value!r}")
            if base == "float":
                value = float(value)
        values[name] = value
    return values


def _gca_params(values: dict) -> GcaParams:
    thresholds = {k: v for k, v in values.items() if k in _THRESHOLDS}
    rest = {k: v for k, v in values.items() if k not in _THRESHOLDS}
    return GcaParams(**rest, thresholds=GcaThresholds(**thresholds))


def parse_gca(doc: dict, where: str = "gca") -> GcaParams:
    """Validated model hyperparameters from a `gca` config section."""
    params = _gca_params(_read(doc, GCA, where))
    params.validate()
    return params


def parse_chain(doc: dict, where: str = "domain") -> tuple[ChainSpec, dict]:
    """A validated chain spec plus the ChainDomain keywords of a chain
    document.  An absent key takes the default; a given value is used as
    given (an empty `target_bigrams` plants no pairs)."""
    values = _read(doc, CHAIN, where)
    values.pop("kind", None)
    options = {k: values.pop(k) for k in CHAIN_OPTIONS if k in values}
    if "rewards" in values:
        try:
            values["rewards"] = {
                (int(i), int(j)): float(r) for i, j, r in values["rewards"]
            }
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{where}.target_bigrams must list [from, to, reward]: {e}") from e
    spec = ChainSpec(**values)
    spec.validate()
    return spec, options


def _domain_instances(doc: dict) -> list[tuple[str, dict]]:
    """The checked (instance_id, spec) pairs of a domain section, its one
    reader.  A chain spec holds a ChainSpec and the ChainDomain keywords.
    A maze section lists curated `instances` or gives a connectivity-levels
    x mazes-per-level grid; each maze spec holds the shape, seed and
    MazeDomain keywords of one instance, its shape checked here (the maze
    itself is generated inside the run)."""
    kind = doc.get("kind")
    if kind == "chain":
        spec, options = parse_chain(doc)
        return [("chain", {"kind": kind, "chain": spec, "options": options})]
    if kind != "maze":
        raise ConfigError(f"unknown domain kind {kind!r}")
    values = _read(doc, MAZE, "domain")
    width, height = values.get("width", 15), values.get("height", 15)
    common = {
        "kind": kind, "width": width, "height": height, "path_slack": values.get("path_slack"),
        "fitness": _read(values.get("fitness", {}), FITNESS, "domain.fitness"),
    }
    if "instances" in values:
        listed = [(f"domain.instances[{i}]", inst) for i, inst in enumerate(values["instances"])]
    else:
        levels = values.get("connectivity_levels", [0.0, 0.3, 0.6, 1.0])
        seed_base = values.get("maze_seed_base", 1000)
        listed = [
            (f"domain.connectivity_levels[{li}]",
             {"connectivity": conn, "maze_seed": seed_base + 100 * li + k})
            for li, conn in enumerate(levels)
            for k in range(values.get("mazes_per_level", 2))
        ]
    instances = []
    for where, inst in listed:
        inst = _read(inst, MAZE_INSTANCE, where, required=MAZE_INSTANCE)
        check_maze_shape(width, height, inst["connectivity"])
        maze_id = f"m{width}x{height}_c{inst['connectivity']}_s{inst['maze_seed']}"
        instances.append((maze_id, {**common, **inst}))
    return instances


def build_domain(spec: dict):
    """The domain of one instance spec from _domain_instances."""
    if spec["kind"] == "chain":
        return ChainDomain(spec["chain"], **spec["options"])
    maze = generate_maze(spec["width"], spec["height"], spec["connectivity"], spec["maze_seed"])
    return MazeDomain(maze, path_slack=spec["path_slack"], **spec["fitness"])


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
    def from_dict(cls, doc: dict, index: int, suite_run: dict, suite_gca: dict) -> "ArmSpec":
        values = _read(doc, ARM, f"arms[{index}]", required=("name", "explorer", "guided"))
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
        params = params_cls(**_read(values.get(explorer, {}), _schema(params_cls), f"{where}.{explorer}"))
        params.validate()
        config = ExperimentConfig(
            **{**suite_run, **_read(values.get("run", {}), RUN, f"{where}.run")},
            gca=_gca_params({**suite_gca, **_read(values.get("gca", {}), GCA, f"{where}.gca")}),
            warm_start_model=values.get("warm_start_model"),
        )
        config.validate()
        if config.warm_start_model:
            # Read the donor now so that a bad file fails before any run; its
            # vocabulary is checked against the domain when a run loads it.
            gca.load_model(config.warm_start_model)
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
        _check_keys(doc, SUITE_KEYS, "suite config")
        top = _read(
            {k: v for k, v in doc.items() if k in SUITE}, SUITE, "suite config",
            required=("runs_per_arm", "domain", "arms"),
        )
        _domain_instances(top["domain"])
        run = _read(doc.get("run", {}), RUN, "run")
        gca = _read(doc.get("gca", {}), GCA, "gca")
        top["arms"] = [ArmSpec.from_dict(a, i, run, gca) for i, a in enumerate(top["arms"])]
        spec = cls(**top)
        if len({a.name for a in spec.arms}) != len(spec.arms):
            raise ConfigError("arm names must be unique")
        for key in ("runs_per_arm", "parallelism"):
            if getattr(spec, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        return spec

    @classmethod
    def from_file(cls, path) -> "SuiteSpec":
        return cls.from_dict(_load_json(path, "suite config"))


SUITE = _schema(SuiteSpec)
SUITE_KEYS = {*SUITE, "notes", "run", "gca"}


def _load_json(path, what: str):
    """The JSON document in a file.  ConfigError when the file cannot be
    read, ParseError when it is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e
    except ValueError as e:
        raise ParseError(f"{what} {path} is not valid JSON: {e}") from e


def derive_seed(suite_seed: int, arm_name: str, instance_id: str, run_index: int) -> int:
    """Stable 64-bit run seed; keyed by arm name so filtering arms does
    not reshuffle the seeds of the remaining ones."""
    data = f"{suite_seed}|{arm_name}|{instance_id}|{run_index}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


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


def _execute_run(task: dict) -> dict:
    """Worker: build the task's domain and explorer and run once."""
    arm = task["arm"]
    domain = build_domain(task["instance_spec"])
    explorer = EXPLORERS[arm.explorer][1](arm.params)
    rng = random.Random(task["seed"])
    model_json = None
    if arm.guided:
        _, model, record = run_ace(arm.config, explorer, domain, rng)
        model_json = gca.serialize_model(model)
    else:
        _, record = run_standard(arm.config, explorer, domain, rng)

    row = {
        "arm": arm.name,
        "explorer": arm.explorer,
        "guided": arm.guided,
        "domain": task["instance_spec"]["kind"],
        "maze_id": task["instance_id"],
        "connectivity": task["instance_spec"].get("connectivity"),
        "run_index": task["run_index"],
        "seed": task["seed"],
        "max_generations": arm.config.max_generations,
    }
    row.update(record.to_dict())
    if model_json is not None:
        row["_model_json"] = model_json
    return row


def orchestrate(
    suite: SuiteSpec,
    out_dir: Path,
    arm_filter: str | None = None,
    parallelism: int | None = None,
    save_models: bool = True,
) -> list[dict]:
    """Run every (arm, instance, run) combination, streaming finished
    records to records.jsonl.  On failure the partial records file stays
    in place and an error manifest is written before re-raising."""
    tasks = build_tasks(suite, arm_filter)
    workers = parallelism if parallelism is not None else suite.parallelism
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl_path = out_dir / "records.jsonl"
    records = []
    log.info("starting suite: %d runs, parallelism %d", len(tasks), workers)

    def _consume(row: dict, jsonl) -> None:
        if save_models and "_model_json" in row:
            name = f"gca_{row['arm']}_{row['maze_id']}_{row['run_index']}.json"
            (out_dir / name).write_text(row["_model_json"], encoding="utf-8")
        row = {k: v for k, v in row.items() if not k.startswith("_")}
        records.append(row)
        jsonl.write(json.dumps(row) + "\n")
        jsonl.flush()
        log.info(
            "finished %s/%s run %d: fitness %.1f success=%s",
            row["arm"], row["maze_id"], row["run_index"],
            row["best_fitness"], row["success"],
        )

    try:
        with open(jsonl_path, "w", encoding="utf-8") as jsonl:
            if workers <= 1:
                for task in tasks:
                    _consume(_execute_run(task), jsonl)
            else:
                with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {pool.submit(_execute_run, t): t for t in tasks}
                    for fut in concurrent.futures.as_completed(futures):
                        _consume(fut.result(), jsonl)
    except Exception as e:
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


def _sorted_records(records: list[dict]) -> list[dict]:
    return sorted(records, key=lambda r: (r["arm"], r["maze_id"], r["run_index"]))


def export_results(records: list[dict], out_dir: Path, suite_doc: dict | None = None) -> None:
    """Write records.csv / records.json / summary.txt and one best-fitness
    curve file per arm (mean and SD across that arm's runs, padded to the
    configured generation count)."""
    if not records:
        raise ConfigError("no records to export")
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = _sorted_records(records)

    with open(out_dir / "records.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in ordered:
            writer.writerow([r[c] for c in CSV_COLUMNS])

    doc = {"suite": suite_doc or {}, "records": ordered}
    with open(out_dir / "records.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)

    (out_dir / "summary.txt").write_text(render_summary(ordered), encoding="utf-8")

    arms = sorted({r["arm"] for r in ordered})
    for arm in arms:
        arm_records = [r for r in ordered if r["arm"] == arm]
        horizon = max(r["max_generations"] for r in arm_records)
        curves = []
        for r in arm_records:
            h = r["best_fitness_by_generation"]
            curves.append(h + [h[-1]] * (horizon - len(h)) if h else [0.0] * horizon)
        with open(out_dir / f"curves_{arm}.csv", "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["generation", "mean_best_fitness", "sd_best_fitness"])
            for g in range(horizon):
                col = [c[g] for c in curves]
                sd = statistics.stdev(col) if len(col) > 1 else 0.0
                writer.writerow([g + 1, statistics.fmean(col), sd])


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
    export_results(records, out_dir, suite_doc={"suite_seed": suite.suite_seed})
    print(render_summary(records))
    print(f"wrote {len(records)} records to {out_dir}")
    return 0


# The record fields render_summary and stats.summarize read.
SUMMARY_FIELDS = (
    "arm", "connectivity", "success", "best_fitness", "success_generation",
    "path_efficiency", "wall_clock_seconds", "macros_created", "macros_surviving",
    "mean_macro_effectiveness",
)


def _summary_records(doc) -> list[dict]:
    """The records of a records file (an object with a "records" list, or
    the list itself); ParseError naming the row and field a summary would
    trip on."""
    records = doc.get("records") if isinstance(doc, dict) else doc
    if not isinstance(records, list):
        raise ParseError("records file: records must be a list of objects")
    for i, row in enumerate(records):
        if not isinstance(row, dict):
            raise ParseError(f"records file: records[{i}] must be an object")
        for key in SUMMARY_FIELDS:
            if key not in row:
                raise ParseError(f"records file: records[{i}] is missing field '{key}'")
    return records


def cmd_stats(args) -> int:
    records = _summary_records(_load_json(args.records, "records file"))
    text = render_summary(records)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "summary.txt").write_text(text, encoding="utf-8")
    return 0


def cmd_oracle(args) -> int:
    if args.spec == "default":
        spec = ChainSpec()
    else:
        spec, _ = parse_chain(_load_json(args.spec, "chain spec"), "chain spec")
    value, witness = brute_force_optimum(spec)
    print(f"alphabet={spec.alphabet_size} length={spec.sequence_length}")
    print(f"optimum={value!r}")
    print("witness=" + " ".join(f"t{t}" for t in witness))
    return 0


def cmd_maze(args) -> int:
    width = args.width or args.size
    height = args.height or args.size
    maze = generate_maze(width, height, args.connectivity, args.seed)
    text = maze_to_text(maze)
    length, _ = bfs_shortest_path(maze)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote maze to {args.out}")
    else:
        print(text, end="")
    print(f"open edges: {len(maze.open_edges)}  shortest path: {length}")
    return 0


def cmd_model(args) -> int:
    model = gca.load_model(args.path)
    unpruned = [m for m in model.macros if not m.pruned]
    print(f"atomic ops: {' '.join(model.atomic_ops)}")
    print(f"vocabulary: {model.vocab_size} ({len(model.macros)} macros, {len(unpruned)} active)")
    print(
        f"params: tau={model.params.temperature} epsilon={model.params.exploration_floor} "
        f"lambda={model.params.learning_rate} gamma={model.params.decay}"
    )
    print(f"stored weights: {len(model.weights)}  support entries: {len(model.support)}")
    top = sorted(model.weights.items(), key=lambda kv: -kv[1])[:5]
    for (i, j), w in top:
        print(f"  W[{i},{j}] = {w:.4f}")
    for m in model.macros:
        flat = model.flatten_macro(m.id)
        names = ">".join(
            model.atomic_ops[x] if x < model.atomic_count else str(x) for x in flat
        )
        state = "pruned" if m.pruned else "active"
        print(
            f"  macro {m.id} = ({m.left},{m.right}) -> {names} "
            f"[{state}, uses={m.uses}, ok={m.successful_uses}]"
        )
    print("model OK")
    return 0


# -- entry point --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
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
    level = os.environ.get("ACE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
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
        print(f"runtime failure: {e}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
