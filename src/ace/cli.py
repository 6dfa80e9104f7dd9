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
from .maze import MazeDomain, bfs_shortest_path, generate_maze, maze_to_text
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

# Checkable value types by annotation; ints also pass where floats go.
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
SUITE_KEYS = {
    "notes", "suite_seed", "runs_per_arm", "output_dir", "parallelism",
    "run", "gca", "domain", "arms",
}
ARM_KEYS = {"name", "explorer", "guided", "ea", "pso", "gca", "run", "warm_start_model"}


def _check_keys(doc, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(allowed))})"
        )


def _read(doc, schema: dict[str, tuple[str, str]], where: str) -> dict:
    """Field name -> value for a config section; unknown keys and values
    of the wrong type raise ConfigError.  Ints given for floats widen."""
    _check_keys(doc, schema, where)
    values = {}
    for key, value in doc.items():
        name, hint = schema[key]
        base, _, rest = hint.partition(" | ")
        kind = _TYPES.get(base)
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


def _check_domain(doc) -> None:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "chain":
        parse_chain(doc)
    elif kind == "maze":
        _read(doc, MAZE, "domain")
        _read(doc.get("fitness", {}), FITNESS, "domain.fitness")
        for i, inst in enumerate(doc.get("instances", [])):
            _read(inst, MAZE_INSTANCE, f"domain.instances[{i}]")
    else:
        raise ConfigError(f"unknown domain kind {kind!r}")


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
    def from_dict(cls, doc: dict, run: dict, gca: dict) -> "ArmSpec":
        name = doc["name"]
        if not isinstance(name, str) or not name or any(
            c for c in name if not (c.isalnum() or c in "-_")
        ):
            raise ConfigError(f"arm name {name!r} must be alphanumeric/-/_")
        where = f"arm {name}"
        _check_keys(doc, ARM_KEYS, where)
        explorer = doc["explorer"]
        if explorer not in EXPLORERS:
            raise ConfigError(f"unknown explorer kind {explorer!r}")
        for other in EXPLORERS:
            if other != explorer and other in doc:
                raise ConfigError(f"{where}: {explorer} arms take no {other!r} section")
        params_cls = EXPLORERS[explorer][0]
        params = params_cls(**_read(doc.get(explorer, {}), _schema(params_cls), f"{where}.{explorer}"))
        params.validate()
        config = ExperimentConfig(
            **{**run, **_read(doc.get("run", {}), RUN, f"{where}.run")},
            gca=_gca_params({**gca, **_read(doc.get("gca", {}), GCA, f"{where}.gca")}),
            warm_start_model=doc.get("warm_start_model"),
        )
        config.validate()
        return cls(name, explorer, bool(doc["guided"]), params, config)


@dataclass
class SuiteSpec:
    suite_seed: int
    runs_per_arm: int
    output_dir: str
    parallelism: int
    domain: dict
    arms: list[ArmSpec]

    @classmethod
    def from_dict(cls, doc: dict) -> "SuiteSpec":
        """Parse and check a whole suite.  Unknown keys, mistyped values
        and invalid arm settings fail here, before any run starts."""
        _check_keys(doc, SUITE_KEYS, "suite config")
        try:
            _check_domain(doc["domain"])
            run = _read(doc.get("run", {}), RUN, "run")
            gca = _read(doc.get("gca", {}), GCA, "gca")
            arms = [ArmSpec.from_dict(a, run, gca) for a in doc["arms"]]
            if len({a.name for a in arms}) != len(arms):
                raise ConfigError("arm names must be unique")
            spec = cls(
                suite_seed=int(doc.get("suite_seed", 0)),
                runs_per_arm=int(doc["runs_per_arm"]),
                output_dir=doc.get("output_dir", "results"),
                parallelism=int(doc.get("parallelism", 1)),
                domain=doc["domain"],
                arms=arms,
            )
        except KeyError as e:
            raise ConfigError(f"suite config missing required field {e}") from e
        if spec.runs_per_arm < 1:
            raise ConfigError("runs_per_arm must be >= 1")
        if spec.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        return spec

    @classmethod
    def from_file(cls, path) -> "SuiteSpec":
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read suite config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"suite config {path} is not valid JSON: {e}") from e
        return cls.from_dict(doc)


def _domain_instances(domain_doc: dict) -> list[tuple[str, dict]]:
    """Expand a domain section into (instance_id, instance_spec) pairs.

    Maze suites either list explicit instances (curated benchmarks) or
    give a connectivity-levels x mazes-per-level grid.
    """
    kind = domain_doc["kind"]
    if kind == "chain":
        return [("chain", domain_doc)]
    width = int(domain_doc.get("width", 15))
    height = int(domain_doc.get("height", 15))
    pairs: list[tuple[float, int]] = []
    if "instances" in domain_doc:
        for inst in domain_doc["instances"]:
            pairs.append((float(inst["connectivity"]), int(inst["maze_seed"])))
    else:
        levels = domain_doc.get("connectivity_levels", [0.0, 0.3, 0.6, 1.0])
        per_level = int(domain_doc.get("mazes_per_level", 2))
        seed_base = int(domain_doc.get("maze_seed_base", 1000))
        for li, conn in enumerate(levels):
            for k in range(per_level):
                pairs.append((float(conn), seed_base + 100 * li + k))
    instances = []
    for conn, seed in pairs:
        maze_id = f"m{width}x{height}_c{conn}_s{seed}"
        spec = dict(domain_doc)
        spec.pop("instances", None)
        spec.update(width=width, height=height, connectivity=conn, maze_seed=seed)
        instances.append((maze_id, spec))
    return instances


def build_domain(instance_spec: dict):
    if instance_spec["kind"] == "chain":
        spec, options = parse_chain(instance_spec)
        return ChainDomain(spec, **options)
    maze = generate_maze(
        instance_spec["width"],
        instance_spec["height"],
        instance_spec["connectivity"],
        instance_spec["maze_seed"],
    )
    fitness = _read(instance_spec.get("fitness", {}), FITNESS, "domain.fitness")
    return MazeDomain(maze, path_slack=instance_spec.get("path_slack"), **fitness)


def derive_seed(suite_seed: int, arm_name: str, instance_id: str, run_index: int) -> int:
    """Stable 64-bit run seed; keyed by arm name so filtering arms does
    not reshuffle the seeds of the remaining ones."""
    data = f"{suite_seed}|{arm_name}|{instance_id}|{run_index}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def build_tasks(suite: SuiteSpec, arm_filter: str | None = None) -> list[dict]:
    instances = _domain_instances(suite.domain)
    tasks = []
    for arm in suite.arms:
        if arm_filter is not None and arm.name != arm_filter:
            continue
        for instance_id, instance_spec in instances:
            for run_index in range(suite.runs_per_arm):
                tasks.append(
                    {
                        "arm": arm.name,
                        "explorer": arm.explorer,
                        "guided": arm.guided,
                        "params": arm.params,
                        "config": arm.config,
                        "instance_id": instance_id,
                        "instance_spec": instance_spec,
                        "run_index": run_index,
                        "seed": derive_seed(
                            suite.suite_seed, arm.name, instance_id, run_index
                        ),
                    }
                )
    if not tasks:
        raise ConfigError(
            f"no runs selected (arm filter {arm_filter!r} matched nothing)"
            if arm_filter
            else "no runs selected"
        )
    return tasks


def _execute_run(task: dict) -> dict:
    """Worker: build everything from the task dict and run once."""
    domain = build_domain(task["instance_spec"])
    explorer = EXPLORERS[task["explorer"]][1](task["params"])
    config = task["config"]
    rng = random.Random(task["seed"])
    model_json = None
    if task["guided"]:
        _, model, record = run_ace(config, explorer, domain, rng)
        model_json = gca.serialize_model(model)
    else:
        _, record = run_standard(config, explorer, domain, rng)

    row = {
        "arm": task["arm"],
        "explorer": task["explorer"],
        "guided": task["guided"],
        "domain": task["instance_spec"]["kind"],
        "maze_id": task["instance_id"],
        "connectivity": task["instance_spec"].get("connectivity"),
        "run_index": task["run_index"],
        "seed": task["seed"],
        "max_generations": config.max_generations,
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


def cmd_stats(args) -> int:
    try:
        with open(args.records, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read records file: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"records file is not valid JSON: {e}") from e
    records = doc["records"] if isinstance(doc, dict) else doc
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
        try:
            with open(args.spec, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read chain spec: {e}") from e
        except json.JSONDecodeError as e:
            raise ParseError(f"chain spec is not valid JSON: {e}") from e
        spec, _ = parse_chain(doc, "chain spec")
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
