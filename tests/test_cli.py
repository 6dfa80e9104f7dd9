from __future__ import annotations

import concurrent.futures
import copy
import csv
import hashlib
import importlib
import importlib.util
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ace.cli as cli
from ace.chain import ChainSpec, brute_force_optimum
from ace.cli import SuiteSpec, build_tasks, derive_seed, orchestrate
from ace.ea import MAX_GENOME_LEN, MAX_TOURNAMENT_SIZE
from ace.errors import ConfigError
from ace.maze import MAX_MAZE_CELLS, MAX_PATH_LEN

from helpers import PYTHON, print_report


def tiny_chain_suite(out, runs=2, gens=6):
    return {
        "suite_seed": 7,
        "runs_per_arm": runs,
        "parallelism": 1,
        "output_dir": str(out),
        "run": {"population_size": 10, "max_generations": gens, "abstraction_period": 5},
        "gca": {"tau": 1.0, "epsilon": 0.15, "lambda": 0.01, "gamma": 0.2},
        "domain": {
            "kind": "chain",
            "alphabet_size": 4,
            "sequence_length": 6,
            "target_bigrams": [[0, 1, 5.0]],
            "noise_penalty": 0.2,
        },
        "arms": [
            {"name": "std-ea", "explorer": "ea", "guided": False,
             "ea": {"crossover_rate": 0.6, "mutation_rate": 0.2}},
            {"name": "ace-ea", "explorer": "ea", "guided": True,
             "ea": {"crossover_rate": 0.6, "mutation_rate": 0.2}},
        ],
    }


def write_suite(tmp_path, doc):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# -- seeds and tasks ------------------------------------------------------------


def test_derived_seeds_are_stable_and_distinct():
    s1 = derive_seed(7, "ace", "maze1", 0)
    assert s1 == derive_seed(7, "ace", "maze1", 0)
    assert s1 != derive_seed(7, "ace", "maze1", 1)
    assert s1 != derive_seed(7, "std", "maze1", 0)
    assert s1 != derive_seed(8, "ace", "maze1", 0)


SEED_KEYS = [
    (suite_seed, arm, instance_id, run_index)
    for suite_seed in (0, 1, -5, 2**63 - 1)
    for arm in ("std-ea", "ace_pso", "ärm")  # isalnum admits a non-ASCII letter
    for instance_id in ("m15x15_c0.1_s101", "chain")
    for run_index in (0, 7)
]


def reference_seed(suite_seed, arm, instance_id, run_index):
    data = f"{suite_seed}|{arm}|{instance_id}|{run_index}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def test_derived_seeds_are_the_first_eight_bytes_of_a_sha256_digest():
    assert [derive_seed(*key) for key in SEED_KEYS] == [reference_seed(*key) for key in SEED_KEYS]


SEEDS_WITHOUT_BUILTIN_SHA256 = """
import json, sys
sys.path.insert(0, sys.argv[1])
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from ace.cli import derive_seed
print(json.dumps(["hashlib" in sys.modules, [derive_seed(*key) for key in json.loads(sys.argv[2])]]))
"""


def test_derived_seeds_are_the_same_through_the_hashlib_fallback():
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-I", "-c", SEEDS_WITHOUT_BUILTIN_SHA256, str(src), json.dumps(SEED_KEYS)],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    loaded_hashlib, seeds = json.loads(out)
    assert loaded_hashlib
    assert seeds == [reference_seed(*key) for key in SEED_KEYS]


def test_task_expansion_counts(tmp_path):
    doc = tiny_chain_suite(tmp_path)
    doc["runs_per_arm"] = 5
    suite = SuiteSpec.from_dict(doc)
    tasks = build_tasks(suite)
    assert len(tasks) == 2 * 5  # arms x runs, single chain instance
    assert len({t["seed"] for t in tasks}) == len(tasks)


def test_arm_filter(tmp_path):
    suite = SuiteSpec.from_dict(tiny_chain_suite(tmp_path))
    tasks = build_tasks(suite, arm_filter="ace-ea")
    assert {t["arm"].name for t in tasks} == {"ace-ea"}
    with pytest.raises(ConfigError):
        build_tasks(suite, arm_filter="nonesuch")


def test_suite_validation(tmp_path):
    doc = tiny_chain_suite(tmp_path)
    doc["arms"][0]["name"] = "bad name!"
    with pytest.raises(ConfigError):
        SuiteSpec.from_dict(doc)
    doc = tiny_chain_suite(tmp_path)
    doc["domain"]["kind"] = "cube"
    with pytest.raises(ConfigError):
        SuiteSpec.from_dict(doc)


# -- orchestration ----------------------------------------------------------------


def test_orchestrate_writes_streaming_records(tmp_path):
    suite = SuiteSpec.from_dict(tiny_chain_suite(tmp_path / "r"))
    records = orchestrate(suite, tmp_path / "r")
    assert len(records) == 4
    lines = (tmp_path / "r" / "records.jsonl").read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        row = json.loads(line)
        assert {"arm", "seed", "best_fitness", "success"} <= set(row)
    models = list((tmp_path / "r").glob("gca_ace-ea_*.json"))
    assert len(models) == 2  # guided arm only


def test_orchestrate_parallelism_equivalence(tmp_path):
    suite = SuiteSpec.from_dict(tiny_chain_suite(tmp_path / "a"))
    seq = orchestrate(suite, tmp_path / "a", parallelism=1)
    par = orchestrate(suite, tmp_path / "b", parallelism=2)

    def canon(rows):
        out = []
        for r in sorted(rows, key=lambda r: (r["arm"], r["run_index"])):
            r = dict(r)
            r.pop("wall_clock_seconds")
            out.append(r)
        return out

    assert canon(seq) == canon(par)
    # Pool workers write the guided models: the same files, byte for byte.
    serial = {f.name: f.read_bytes() for f in (tmp_path / "a").glob("gca_*.json")}
    pooled = {f.name: f.read_bytes() for f in (tmp_path / "b").glob("gca_*.json")}
    assert sorted(serial) == ["gca_ace-ea_chain_0.json", "gca_ace-ea_chain_1.json"]
    assert pooled == serial


def test_orchestrate_crash_preserves_partial_results(tmp_path, monkeypatch):
    suite = SuiteSpec.from_dict(tiny_chain_suite(tmp_path / "c"))
    real = cli._execute_run
    calls = {"n": 0}

    def flaky(task, model_path):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("simulated abort")
        return real(task, model_path)

    monkeypatch.setattr(cli, "_execute_run", flaky)
    with pytest.raises(RuntimeError):
        orchestrate(suite, tmp_path / "c")
    lines = (tmp_path / "c" / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2  # exactly the completed runs
    manifest = json.loads((tmp_path / "c" / "error_manifest.json").read_text())
    assert manifest["completed_runs"] == 2
    assert "simulated abort" in manifest["error"]


# The real worker, kept here so that a pool worker forked while a test
# patches cli._execute_run can still call it.
_EXECUTE_RUN = cli._execute_run


def _first_run_raises(task, model_path):
    """cli._execute_run, except that the suite's first run raises."""
    if task["arm"].name == "std-ea" and task["run_index"] == 0:
        raise RuntimeError("simulated abort")
    return _EXECUTE_RUN(task, model_path)


def test_failed_parallel_suite_cancels_the_runs_not_yet_started(tmp_path, monkeypatch):
    # 10 standard runs, the first of which raises, then 10 guided runs
    # that would each save a model.
    out = tmp_path / "f"
    suite = SuiteSpec.from_dict(tiny_chain_suite(out, runs=10))
    monkeypatch.setattr(cli, "_execute_run", _first_run_raises)
    with pytest.raises(RuntimeError, match="simulated abort"):
        orchestrate(suite, out, parallelism=2)
    lines = (out / "records.jsonl").read_text().splitlines()
    manifest = json.loads((out / "error_manifest.json").read_text())
    assert manifest["completed_runs"] == len(lines)
    assert manifest["total_runs"] == 20
    # Beyond the recorded runs, only those the two workers already held
    # may have finished and saved a model.
    assert len(list(out.glob("gca_*.json"))) <= len(lines) + 2


# -- cli commands -----------------------------------------------------------------


def test_run_command_outputs(tmp_path, capsys):
    suite_path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "out"))
    rc = cli.main(["run", "--config", str(suite_path)])
    assert rc == 0
    out_dir = tmp_path / "out"
    for name in ("records.csv", "records.json", "summary.txt", "records.jsonl",
                 "curves_std-ea.csv", "curves_ace-ea.csv"):
        assert (out_dir / name).exists(), name
    rows = read_csv_rows(out_dir / "records.csv")
    assert len(rows) == 4
    assert list(rows[0]) == cli.CSV_COLUMNS
    curves = read_csv_rows(out_dir / "curves_ace-ea.csv")
    assert len(curves) == 6  # one row per generation


def test_run_renders_the_summary_once_and_prints_what_it_wrote(tmp_path, capsys, monkeypatch):
    real = cli.render_summary
    calls = []
    monkeypatch.setattr(cli, "render_summary", lambda rows: calls.append(rows) or real(rows))
    suite_path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "out"))
    assert cli.main(["run", "--config", str(suite_path)]) == 0
    assert len(calls) == 1
    summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out.startswith(summary + "\n")
    # stats --out renders once too, and writes what it prints.
    records = str(tmp_path / "out" / "records.json")
    assert cli.main(["stats", "--records", records, "--out", str(tmp_path / "again")]) == 0
    assert len(calls) == 2
    again = (tmp_path / "again" / "summary.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == again + "\n"
    assert again == summary


def test_run_command_deterministic_modulo_wall_clock(tmp_path):
    suite_path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "o1"))
    assert cli.main(["run", "--config", str(suite_path), "--out", str(tmp_path / "o1")] ) == 0
    assert cli.main(["run", "--config", str(suite_path), "--out", str(tmp_path / "o2")]) == 0

    def strip(path):
        rows = read_csv_rows(path)
        for r in rows:
            r.pop("wall_clock_seconds")
        return rows

    assert strip(tmp_path / "o1" / "records.csv") == strip(tmp_path / "o2" / "records.csv")
    assert (tmp_path / "o1" / "curves_ace-ea.csv").read_bytes() == (
        tmp_path / "o2" / "curves_ace-ea.csv"
    ).read_bytes()


def test_seed_override_changes_results(tmp_path):
    doc = tiny_chain_suite(tmp_path / "s1")
    suite_path = write_suite(tmp_path, doc)
    cli.main(["run", "--config", str(suite_path), "--out", str(tmp_path / "s1")])
    cli.main(["run", "--config", str(suite_path), "--seed", "99", "--out", str(tmp_path / "s2")])
    seeds1 = {r["seed"] for r in read_csv_rows(tmp_path / "s1" / "records.csv")}
    seeds2 = {r["seed"] for r in read_csv_rows(tmp_path / "s2" / "records.csv")}
    assert seeds1.isdisjoint(seeds2)


def test_stats_command_round_trips_summary(tmp_path, capsys):
    suite_path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "out"))
    cli.main(["run", "--config", str(suite_path)])
    capsys.readouterr()
    original = (tmp_path / "out" / "summary.txt").read_text()
    rc = cli.main(
        ["stats", "--records", str(tmp_path / "out" / "records.json"),
         "--out", str(tmp_path / "redo")]
    )
    assert rc == 0
    assert (tmp_path / "redo" / "summary.txt").read_text() == original


def test_csv_header_is_pinned():
    assert cli.CSV_COLUMNS == [
        "arm", "explorer", "guided", "domain", "maze_id", "connectivity", "run_index", "seed",
        "success", "best_fitness", "success_generation", "path_efficiency", "macros_created",
        "macros_surviving", "mean_macro_effectiveness", "hebbian_updates", "generations_run",
        "wall_clock_seconds",
    ]


def _summary_record(arm, connectivity, success, fitness, gen, eff, wall, created, surviving,
                    effness):
    return {
        "arm": arm, "connectivity": connectivity, "success": success, "best_fitness": fitness,
        "success_generation": gen, "path_efficiency": eff, "wall_clock_seconds": wall,
        "macros_created": created, "macros_surviving": surviving,
        "mean_macro_effectiveness": effness,
    }


def test_summary_text_is_pinned():
    records = [
        _summary_record("ace-pso", 0.0, True, 12.5, 4, 0.5, 0.25, 3, 2, 0.4),
        _summary_record("ace-pso", 0.3, False, -3.0, None, None, 0.75, 5, 1, 0.125),
        _summary_record("ace-pso", 0.3, True, 20.0, 9, 0.25, 1.5, 4, 4, 0.6),
        _summary_record("std-pso", 0.0, False, -7.5, None, None, 0.1, 0, 0, 0.0),
        _summary_record("std-pso", 0.3, False, -1.0, None, None, 0.3, 0, 0, 0.0),
    ]
    assert cli.render_summary(records) == (
        "Per arm:\n"
        "group    runs  succ%  fitness  gen  patheff  macros  surv  eff    time_s\n"
        "-------  ----  -----  -------  ---  -------  ------  ----  -----  ------\n"
        "ace-pso  3     66.7   9.8      6.5  0.375    4.0     2.3   0.375  0.83\n"
        "std-pso  2     0.0    -4.2     -    -        0.0     0.0   0.000  0.20\n"
        "\n"
        "Per arm and connectivity:\n"
        "group        runs  succ%  fitness  gen  patheff  macros  surv  eff    time_s\n"
        "-----------  ----  -----  -------  ---  -------  ------  ----  -----  ------\n"
        "ace-pso/0.0  1     100.0  12.5     4.0  0.500    3.0     2.0   0.400  0.25\n"
        "ace-pso/0.3  2     50.0   8.5      9.0  0.250    4.5     2.5   0.362  1.12\n"
        "std-pso/0.0  1     0.0    -7.5     -    -        0.0     0.0   0.000  0.10\n"
        "std-pso/0.3  1     0.0    -1.0     -    -        0.0     0.0   0.000  0.30\n"
    )


SUMMARY_ROW = {
    "arm": "a", "connectivity": None, "success": True, "best_fitness": 1.0,
    "success_generation": 3, "path_efficiency": None, "wall_clock_seconds": 0.1,
    "macros_created": 0, "macros_surviving": 0, "mean_macro_effectiveness": 0.0,
}
TIMELESS_ROW = {k: v for k, v in SUMMARY_ROW.items() if k != "wall_clock_seconds"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"records": [{"arm": "a"}]}, "records[0] is missing field 'connectivity'"),
        ({"records": 5}, "records must be a list"),
        ({"suite": {}}, "records must be a list"),
        ([SUMMARY_ROW, 7], "records[1] must be an object"),
        ({"records": [SUMMARY_ROW, TIMELESS_ROW]},
         "records[1] is missing field 'wall_clock_seconds'"),
        ([SUMMARY_ROW, {**SUMMARY_ROW, "best_fitness": "abc"}],
         "records[1].best_fitness must be float, got 'abc'"),
        ([{**SUMMARY_ROW, "arm": ["x"]}], "records[0].arm must be str, got ['x']"),
        ([{**SUMMARY_ROW, "connectivity": "0.3"}],
         "records[0].connectivity must be float | None, got '0.3'"),
        ([{**SUMMARY_ROW, "success": 1}], "records[0].success must be bool, got 1"),
        ([{**SUMMARY_ROW, "macros_created": True}],
         "records[0].macros_created must be float, got True"),
        ([{**SUMMARY_ROW, "best_fitness": None}], "records[0].best_fitness must be float, got None"),
        ([{**SUMMARY_ROW, "wall_clock_seconds": None}],
         "records[0].wall_clock_seconds must be float, got None"),
        ([{**SUMMARY_ROW, "success_generation": "3"}],
         "records[0].success_generation must be float | None, got '3'"),
    ],
)
def test_stats_rejects_malformed_records_with_exit_1(tmp_path, capsys, doc, message):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["stats", "--records", str(path)]) == 1
    assert message in capsys.readouterr().err
    # the same rows, complete, summarize
    path.write_text(json.dumps([SUMMARY_ROW, SUMMARY_ROW]))
    assert cli.main(["stats", "--records", str(path)]) == 0


def test_stats_skips_null_success_only_fields(tmp_path, capsys):
    # a null generation or path efficiency, even in a successful row, is left out of its mean
    rows = [{**SUMMARY_ROW, "success_generation": None, "path_efficiency": 0.5},
            {**SUMMARY_ROW, "success_generation": 5}]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(rows))
    assert cli.main(["stats", "--records", str(path)]) == 0
    header, _, row = capsys.readouterr().out.splitlines()[1:4]
    cells = dict(zip(header.split(), row.split()))
    assert (cells["gen"], cells["patheff"]) == ("5.0", "0.500")


@pytest.fixture
def ace_logger():
    """The `ace` logger, its level restored after the test."""
    logger = logging.getLogger("ace")
    level = logger.level
    yield logger
    logger.setLevel(level)


def test_log_level_env_var(monkeypatch, capsys, ace_logger):
    for name, expected in [
        ("debug", logging.DEBUG),
        ("not-a-level", logging.WARNING),  # silently falls back
        ("basic_format", logging.WARNING),  # an attribute, but a format string
        ("raiseExceptions", logging.WARNING),  # an attribute, but a bool
    ]:
        monkeypatch.setenv("ACE_LOG", name)
        assert cli.main(["oracle", "--spec", "default"]) == 0, name
        assert ace_logger.level == expected, name


def test_log_level_is_set_by_each_main_call_under_a_root_handler(monkeypatch, capsys, ace_logger):
    # a root logger that already has a handler (an embedding program's)
    # keeps it, and every call still sets its own level
    root = logging.getLogger()
    handler = logging.NullHandler()
    root.addHandler(handler)
    try:
        for name, expected in (("debug", logging.DEBUG), ("warning", logging.WARNING)):
            monkeypatch.setenv("ACE_LOG", name)
            assert cli.main(["oracle", "--spec", "default"]) == 0, name
            assert ace_logger.getEffectiveLevel() == expected, name
            assert handler in root.handlers
    finally:
        root.removeHandler(handler)


def test_progress_lines_go_to_the_ace_logger(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("ACE_LOG", "info")
    caplog.set_level(logging.INFO, logger="ace")
    path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "out", gens=2))
    assert cli.main(["run", "--config", str(path), "--no-models"]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "ace"]
    assert lines[0] == "starting suite: 4 runs, parallelism 1"
    finished = sorted(line.split(":")[0] for line in lines[1:])
    assert finished == [f"finished {arm}/chain run {i}"
                        for arm in ("ace-ea", "std-ea") for i in (0, 1)]


# Standard-library modules that only cold paths use: a pool (parallelism
# above 1), logging (ACE_LOG), the CSV and statistics of an export, the
# argument parser (main) and a traceback (a failure).
COLD_MODULES = ("argparse", "concurrent.futures", "csv", "logging", "statistics", "traceback")

# Prints how many modules `import ace.cli` adds, then which of the
# watched modules (argv[2:]) are loaded after the import and, on the last
# line (after the maze the command prints), after a command.
IMPORT_GUARD = """
import sys
sys.path.insert(0, sys.argv[1])
watched = sys.argv[2:]
before = len(sys.modules)
import ace.cli
print(len(sys.modules) - before)
print(*[m for m in watched if m in sys.modules])
ace.cli.main(["maze", "--size", "3"])
print(*[m for m in watched if m in sys.modules])
"""


# hashlib loads OpenSSL (_hashlib); seeds hash through the interpreter's
# built-in SHA-256 wherever it has one.
OPENSSL_MODULES = ("hashlib", "_hashlib")


def test_import_and_maze_load_no_cold_module():
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "ACE_LOG"}
    builtin_sha256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
    cold = COLD_MODULES + (OPENSSL_MODULES if builtin_sha256 else ())
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_GUARD, str(src), *COLD_MODULES, *OPENSSL_MODULES],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    added, imported, commanded = int(out[0]), out[1].split(), out[-1].split()

    def among(group):
        return ", ".join(m for m in imported if m in group) or "none"

    print_report(f"Set-up imports ({PYTHON}): import ace.cli adds {added} modules; "
                 f"cold modules among them: {among(COLD_MODULES)}; "
                 f"hashlib modules among them: {among(OPENSSL_MODULES)}")
    assert [m for m in imported if m in cold] == []  # importing ace.cli loads none of them
    assert [m for m in commanded if m in cold] == ["argparse"]  # a command loads only its parser


def test_oracle_command_matches_solver(capsys):
    rc = cli.main(["oracle", "--spec", "default"])
    assert rc == 0
    out = capsys.readouterr().out
    value, witness = brute_force_optimum(ChainSpec())
    assert f"optimum={value!r}" in out
    assert " ".join(f"t{t}" for t in witness) in out


def console_scripts() -> dict[str, str]:
    """The [project.scripts] table of pyproject.toml, name -> "module:attr",
    read as text (tomllib is 3.11+)."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = {}
    for line in table.splitlines():
        if "=" in line and not line.lstrip().startswith("#"):
            name, target = (part.strip().strip('"') for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def test_console_script_runs_the_oracle(monkeypatch, capsys):
    # The installed ace-bench wrapper calls the target with no arguments
    # and passes its return value to sys.exit.
    module, attr = console_scripts()["ace-bench"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["ace-bench", "oracle", "--spec", "default"])
    assert entry() == 0
    assert f"optimum={brute_force_optimum(ChainSpec())[0]!r}" in capsys.readouterr().out


def test_oracle_command_custom_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "alphabet_size": 3, "sequence_length": 4,
        "target_bigrams": [[0, 1, 2.0]], "noise_penalty": 0.0,
    }))
    assert cli.main(["oracle", "--spec", str(spec_path)]) == 0
    assert "optimum=" in capsys.readouterr().out


def test_maze_command_tree_edges(capsys):
    rc = cli.main(["maze", "--size", "15", "--connectivity", "0.0", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "open edges: 224" in out
    assert out.count("+") > 100  # wall rendering present


@pytest.mark.parametrize("side", ["--width", "--height"])
def test_maze_command_explicit_zero_side_exits_1(capsys, side):
    assert cli.main(["maze", side, "0", "--size", "4"]) == 1
    assert "maze dimensions must be >= 2" in capsys.readouterr().err


def test_maze_command_over_the_cell_cap_exits_1(capsys):
    assert cli.main(["maze", "--size", "100000"]) == 1
    assert f"over {MAX_MAZE_CELLS} cells" in capsys.readouterr().err


def test_maze_command_writes_file(tmp_path, capsys):
    target = tmp_path / "maze.txt"
    rc = cli.main([
        "maze", "--width", "5", "--height", "4", "--connectivity", "0.5",
        "--seed", "9", "--out", str(target),
    ])
    assert rc == 0
    from ace.maze import generate_maze, maze_to_text

    assert target.read_text() == maze_to_text(generate_maze(5, 4, 0.5, 9))


def test_model_command_inspects(tmp_path, capsys):
    from ace.gca import GcaModel, save_model

    model = GcaModel(["N", "E", "S", "W"], weights={(0, 1): 0.75})
    model.add_macro(0, 1)
    path = tmp_path / "model.json"
    save_model(model, path)
    rc = cli.main(["model", "--path", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "model OK" in out
    assert "macro 4" in out
    assert (
        "params: tau=1.0 epsilon=0.1 lambda=0.15 gamma=0.2 "
        "theta_w=0.3 theta_s=3 theta_l=1.4 theta_eff=0.1\n"
    ) in out


def test_gca_config_keys_are_the_hyperparameter_table():
    from ace.gca import HYPERPARAMETERS

    assert sorted(cli.GCA) == sorted(key for key, _, _ in HYPERPARAMETERS)
    for key, _, name in HYPERPARAMETERS:
        assert cli.ALIASES[key] == name and cli.GCA[key][0] == name


def test_model_with_unknown_macro_key_exits_1(tmp_path, capsys):
    from ace.gca import GcaModel, serialize_model

    model = GcaModel(["t0", "t1", "t2", "t3"])
    model.add_macro(0, 1)
    doc = json.loads(serialize_model(model))
    doc["macros"][0]["prunned"] = True  # a misspelled optional flag
    donor = tmp_path / "donor.json"
    donor.write_text(json.dumps(doc))
    assert cli.main(["model", "--path", str(donor)]) == 1
    assert "unknown key(s) in macros[0]: prunned" in capsys.readouterr().err
    out = tmp_path / "out"
    suite = tiny_chain_suite(out)
    suite["arms"][1]["warm_start_model"] = str(donor)
    assert cli.main(["run", "--config", str(write_suite(tmp_path, suite))]) == 1
    assert "unknown key(s) in macros[0]: prunned" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


def test_warm_start_arm_through_config(tmp_path):
    # first suite trains models; second suite warm-starts from one of them
    first = tiny_chain_suite(tmp_path / "train", runs=1, gens=10)
    orchestrate(SuiteSpec.from_dict(first), tmp_path / "train")
    donor = next((tmp_path / "train").glob("gca_ace-ea_*.json"))

    second = tiny_chain_suite(tmp_path / "warm", runs=1, gens=5)
    second["arms"] = [
        {
            "name": "warm-ea",
            "explorer": "ea",
            "guided": True,
            "ea": {"crossover_rate": 0.6, "mutation_rate": 0.2},
            "gca": {"lambda": 0.5, "tau": 2.0},
            "warm_start_model": str(donor),
        }
    ]
    records = orchestrate(SuiteSpec.from_dict(second), tmp_path / "warm")
    assert len(records) == 1
    saved = next((tmp_path / "warm").glob("gca_warm-ea_*.json"))
    from ace.gca import load_model

    revived = load_model(saved)
    trained = load_model(donor)
    assert revived.vocab_size >= trained.vocab_size  # library carried forward
    # hyperparameters are the arm's merged gca settings, not the donor's
    assert (trained.params.learning_rate, trained.params.temperature) == (0.01, 1.0)
    assert (revived.params.learning_rate, revived.params.temperature) == (0.5, 2.0)
    assert revived.params.exploration_floor == 0.15  # suite-wide value


def test_shipped_configs_are_valid():
    repo = Path(__file__).resolve().parent.parent
    maze = SuiteSpec.from_file(repo / "configs" / "maze_suite.json")
    tasks = build_tasks(maze)
    assert len(tasks) == 4 * 8 * 10  # arms x curated instances x runs
    connectivities = {t["instance_spec"]["connectivity"] for t in tasks}
    assert connectivities == {0.0, 0.3, 0.6, 1.0}
    for task in tasks[:4]:
        cli.build_domain(task["instance_spec"])  # builds without error
    ea_pops = {t["arm"].config.population_size for t in tasks if t["arm"].explorer == "ea"}
    pso_pops = {t["arm"].config.population_size for t in tasks if t["arm"].explorer == "pso"}
    assert ea_pops == {30} and pso_pops == {15}

    chain = SuiteSpec.from_file(repo / "configs" / "chain_suite.json")
    tasks = build_tasks(chain)
    assert len(tasks) == 2 * 10
    cli.build_domain(tasks[0]["instance_spec"])


def _maze_suite(out):
    return {
        "runs_per_arm": 1,
        "output_dir": str(out),
        "run": {"population_size": 4, "max_generations": 2},
        "domain": {"kind": "maze", "width": 5, "height": 5,
                   "instances": [{"connectivity": 0.3, "maze_seed": 1}]},
        "arms": [{"name": "std-pso", "explorer": "pso", "guided": False}],
    }


def _typo(doc, section, key):
    """doc with a misspelt key planted in one section."""
    arm = doc["arms"][0]
    where = {
        "suite": lambda: doc,
        "run": lambda: doc["run"],
        "gca": lambda: doc.setdefault("gca", {}),
        "domain": lambda: doc["domain"],
        "arm": lambda: arm,
        "arm-run": lambda: arm.setdefault("run", {}),
        "ea": lambda: arm["ea"],
        "pso": lambda: arm.setdefault("pso", {}),
    }[section]()
    where[key] = 1
    return doc


@pytest.mark.parametrize(
    "make, section, key",
    [
        (tiny_chain_suite, "gca", "lamda"),
        (tiny_chain_suite, "ea", "mutation_rat"),
        (tiny_chain_suite, "run", "max_generation"),
        (tiny_chain_suite, "arm-run", "populaton_size"),
        (tiny_chain_suite, "domain", "noise_penlty"),
        (tiny_chain_suite, "arm", "warm_start"),
        (tiny_chain_suite, "suite", "arm"),
        (_maze_suite, "domain", "path_slak"),
        (_maze_suite, "pso", "inertai"),
        # options that are constants now, one from each section they lived in
        (_maze_suite, "domain", "fitness"),
        (_maze_suite, "domain", "connectivity_levels"),
        (tiny_chain_suite, "domain", "success_fraction"),
        (_maze_suite, "pso", "max_path_len"),
    ],
)
def test_unknown_config_key_exits_1_before_any_run(tmp_path, capsys, make, section, key):
    out = tmp_path / "out"
    suite_path = write_suite(tmp_path, _typo(make(out), section, key))
    assert cli.main(["run", "--config", str(suite_path)]) == 1
    err = capsys.readouterr().err
    assert "unknown key(s) in" in err and key in err
    assert not (out / "records.jsonl").exists()
    assert not (out / "error_manifest.json").exists()


def test_suite_keeps_notes_and_rejects_bad_values_before_any_run(tmp_path):
    doc = tiny_chain_suite(tmp_path / "out")
    doc["notes"] = {"anything": "goes"}
    SuiteSpec.from_dict(doc)
    bad_value = tiny_chain_suite(tmp_path / "out")
    bad_value["arms"][1]["ea"]["mutation_rate"] = 1.5  # fails EaParams.validate
    bad_type = tiny_chain_suite(tmp_path / "out")
    bad_type["run"]["population_size"] = "10"
    wrong_section = tiny_chain_suite(tmp_path / "out")
    wrong_section["arms"][0]["pso"] = {}
    for doc in (bad_value, bad_type, wrong_section):
        with pytest.raises(ConfigError):
            SuiteSpec.from_dict(doc)
        suite_path = write_suite(tmp_path, doc)
        assert cli.main(["run", "--config", str(suite_path)]) == 1
        assert not (tmp_path / "out" / "records.jsonl").exists()


def test_backtrack_dead_end_mode_exits_1_before_any_run(tmp_path, capsys):
    # A walk ends where its only way out is back: terminate is the one rule.
    doc = _maze_suite(tmp_path / "out")
    doc["arms"][0]["pso"] = {"dead_end_mode": "backtrack"}
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert "dead_end_mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    doc["arms"][0]["pso"] = {"dead_end_mode": "terminate"}
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 0


@pytest.mark.parametrize(
    "key, value",
    [
        ("runs_per_arm", "abc"), ("suite_seed", "x"), ("runs_per_arm", 1.7), ("parallelism", True),
        ("arms", {}), ("guided", "false"), ("warm_start_model", 5),
    ],
)
def test_mistyped_top_level_value_exits_1_before_any_run(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    # arm keys are planted in the first arm entry
    where, section = ("arms[0]", doc["arms"][0]) if key in cli.ARM else ("suite config", doc)
    section[key] = value
    hint = {"arms": "list", "guided": "bool", "warm_start_model": "str | None"}.get(key, "int")
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert f"{where}.{key} must be {hint}" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


@pytest.mark.parametrize(
    "domain, message",
    [
        ({"width": 1}, "dimensions"),
        ({"height": 1}, "dimensions"),
        ({"instances": [{"connectivity": 0.3, "maze_seed": 1},
                        {"connectivity": 1.5, "maze_seed": 2}]}, "connectivity"),
        ({"instances": [{"connectivity": -0.5, "maze_seed": 1}]}, "connectivity"),
        # the grid form is gone: a suite that still sets it names the key
        ({"connectivity_levels": ["x"]}, "connectivity_levels"),
        ({"instances": [{"connectivity": "x", "maze_seed": 1}]},
         "domain.instances[0].connectivity must be float"),
        ({"instances": []}, "domain.instances lists no maze instance"),
    ],
)
def test_bad_maze_shape_exits_1_before_any_run(tmp_path, capsys, monkeypatch, domain, message):
    out = tmp_path / "out"
    doc = _maze_suite(out)
    doc["domain"].update(domain)
    # the check reads the instance specs; no maze is generated while parsing
    monkeypatch.setattr(cli, "generate_maze", lambda *a: pytest.fail("maze generated"))
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()
    assert not (out / "error_manifest.json").exists()


def test_maze_domain_without_instances_exits_1_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    doc = _maze_suite(out)
    del doc["domain"]["instances"]
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert "domain is missing field 'instances'" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_maze_instance_exits_1_before_any_run(tmp_path, capsys):
    # One (connectivity, maze_seed) listed twice would run twice under one
    # instance id and one derived seed, with repeated records.
    out = tmp_path / "out"
    doc = _maze_suite(out)
    doc["domain"]["instances"] = [
        {"connectivity": 0.3, "maze_seed": 1},
        {"connectivity": 0.5, "maze_seed": 1},
        {"connectivity": 0.3, "maze_seed": 1},
    ]
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert "domain.instances[2]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["max_new_macros_per_scan", "prune_min_uses"])
def test_negative_promotion_cadence_exits_1_before_any_run(tmp_path, capsys, key):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["arms"][1]["run"] = {key: -1}
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert f"{key} must be >= 0, got -1" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


@pytest.mark.parametrize("bounds", [{"min_len": 20}, {"max_len": 1}])
def test_empty_genome_bounds_exit_1(tmp_path, capsys, bounds):
    doc = tiny_chain_suite(tmp_path / "out", runs=1)
    doc["arms"][0]["ea"].update(bounds)
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    [(key, value)] = bounds.items()
    # the tiny chain's default bounds are 2..sequence_length
    assert f"{key}={value}" in err and "domain default bounds (2, 6)" in err


def test_pso_arm_on_a_chain_exits_1_before_any_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["arms"][1] = {"name": "std-pso", "explorer": "pso", "guided": False}
    # the check builds no domain: a chain domain runs the exact solver
    monkeypatch.setattr(cli, "ChainDomain", lambda *a: pytest.fail("chain built"))
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert ("arm std-pso: a chain domain does not expose the stepwise path interface "
            "that pso arms need") in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


def test_empty_maze_genome_bounds_exit_1_before_any_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    doc = _maze_suite(out)
    doc["arms"].append({"name": "std-ea", "explorer": "ea", "guided": False,
                        "ea": {"min_len": 500}})
    monkeypatch.setattr(cli, "generate_maze", lambda *a: pytest.fail("maze generated"))
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    # a 5x5 maze's default bounds are 1..4 moves per cell
    assert ("arm std-ea: empty genome length range 500..100: min_len=500, max_len=None, "
            "domain default bounds (1, 100)") in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


@pytest.mark.parametrize("key, value", [("min_len", -5), ("min_len", 0), ("max_len", 0)])
def test_lone_genome_bound_below_1_exits_1_at_parse_time(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["arms"][1]["ea"][key] = value
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


def test_one_token_chain_suite_runs(tmp_path, capsys):
    # the default genome bounds shrink to the chain: 1..1, not 2..1
    out = tmp_path / "out"
    doc = tiny_chain_suite(out, runs=2)
    doc["domain"].update(sequence_length=1, target_bigrams=[])
    doc["arms"] = doc["arms"][1:]
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 0
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 2 and all(r["success"] for r in records)
    assert not (out / "error_manifest.json").exists()


@pytest.mark.parametrize("content", [None, "{}", "not json"])
def test_unreadable_donor_exits_1_before_any_run(tmp_path, capsys, content):
    donor = tmp_path / "donor.json"
    if content is not None:
        donor.write_text(content)
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["arms"][1]["warm_start_model"] = str(donor)
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert ("cannot read model file" if content is None else "model") in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


def test_warm_start_vocabulary_mismatch_exits_1_before_any_run(tmp_path, capsys):
    from ace.gca import GcaModel, save_model

    donor = tmp_path / "maze_donor.json"
    save_model(GcaModel(["N", "E", "S", "W"]), donor)
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["arms"][1]["warm_start_model"] = str(donor)
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert (
        "arm ace-ea: warm-start model vocabulary does not match the domain: "
        "['N', 'E', 'S', 'W'] vs ['t0', 't1', 't2', 't3']"
    ) in err
    assert not (out / "records.jsonl").exists()


@pytest.mark.parametrize(
    "where, value",
    [("suite", 0), ("suite", -3), ("flag", 0), ("flag", -3)],
)
def test_parallelism_below_1_exits_1_before_any_run(tmp_path, capsys, where, value):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    argv = ["run", "--config", str(tmp_path / "suite.json")]
    if where == "suite":
        doc["parallelism"] = value
    else:
        argv += ["--parallelism", str(value)]
    write_suite(tmp_path, doc)
    assert cli.main(argv) == 1
    assert "parallelism must be >= 1" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


def recording_pool(monkeypatch) -> list:
    """Replace ProcessPoolExecutor with a stand-in that runs each task in
    this process, so that no worker process ever starts; the returned list
    collects the max_workers of every pool made."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize(
    "parallelism, arm, pools",
    [(2, None, [2]), (64, None, [4]), (64, "ace-ea", [2]), (8, "ace-ea", [])],
)
def test_pool_never_has_more_workers_than_runs(tmp_path, monkeypatch, parallelism, arm, pools):
    sizes = recording_pool(monkeypatch)
    runs = 1 if pools == [] else 2  # the last case selects a single run: no pool
    suite = SuiteSpec.from_dict(tiny_chain_suite(tmp_path / "out", runs=runs))
    records = orchestrate(suite, tmp_path / "out", arm_filter=arm, parallelism=parallelism,
                          save_models=False)
    assert sizes == pools
    assert len(records) == (1 if arm else 2) * runs


@pytest.mark.parametrize("where", ["suite", "flag"])
@pytest.mark.parametrize("value", [cli.MAX_PARALLELISM + 1, 100_000])
def test_parallelism_over_the_cap_exits_1_before_any_pool(tmp_path, capsys, monkeypatch,
                                                          where, value):
    sizes = recording_pool(monkeypatch)
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    argv = ["run", "--config", str(tmp_path / "suite.json")]
    if where == "suite":
        doc["parallelism"] = value
    else:
        argv += ["--parallelism", str(value)]
    write_suite(tmp_path, doc)
    assert cli.main(argv) == 1
    assert f"parallelism must be <= {cli.MAX_PARALLELISM}, got {value}" in capsys.readouterr().err
    assert sizes == []
    assert not out.exists()


def _ea_arm(**ea):
    return {"name": "std-ea", "explorer": "ea", "guided": False, "ea": ea}


@pytest.mark.parametrize(
    "domain, arm, message",
    [
        ({"width": 100_000, "height": 100_000}, None, f"over {MAX_MAZE_CELLS} cells"),
        ({"width": 2, "height": MAX_MAZE_CELLS // 2 + 1}, None, f"over {MAX_MAZE_CELLS} cells"),
        ({"path_slack": MAX_PATH_LEN + 1}, None, "path_slack must lie in"),
        ({"path_slack": -1}, None, "path_slack must lie in"),
        ({}, {"name": "p", "explorer": "pso", "guided": False,
              "run": {"population_size": 10**6, "max_generations": 10**6}},
         f"over {cli.MAX_RUN_EVALUATIONS}"),
        # a swarm step budget of 10**12 asked for through the domain
        ({"path_slack": 10**12}, {"name": "p", "explorer": "pso", "guided": False},
         "path_slack must lie in"),
        ({}, _ea_arm(min_len=10**9, max_len=10**9), f"min_len must be <= {MAX_GENOME_LEN}"),
        ({}, _ea_arm(max_len=MAX_GENOME_LEN + 1), f"max_len must be <= {MAX_GENOME_LEN}"),
        # each selection would draw 10**12 entrants
        ({}, _ea_arm(tournament_size=10**12),
         f"tournament_size must lie in [2, {MAX_TOURNAMENT_SIZE}], got {10**12}"),
    ],
)
def test_oversized_input_exits_1_at_parse_time(tmp_path, capsys, monkeypatch, domain, arm,
                                               message):
    out = tmp_path / "out"
    doc = _maze_suite(out)
    doc["domain"].update(domain)
    if arm is not None:
        doc["arms"].append(arm)
    monkeypatch.setattr(cli, "generate_maze", lambda *a: pytest.fail("maze generated"))
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_size_caps_admit_their_limits_without_building_anything(tmp_path, monkeypatch):
    # Parsing and task building read the sizes only: no maze is generated.
    monkeypatch.setattr(cli, "generate_maze", lambda *a: pytest.fail("maze generated"))
    doc = _maze_suite(tmp_path / "out")
    doc["parallelism"] = cli.MAX_PARALLELISM
    doc["domain"].update(width=2, height=MAX_MAZE_CELLS // 2, path_slack=MAX_PATH_LEN)
    doc["arms"].append(_ea_arm(min_len=MAX_GENOME_LEN, max_len=MAX_GENOME_LEN,
                               tournament_size=MAX_TOURNAMENT_SIZE))
    assert len(build_tasks(SuiteSpec.from_dict(doc))) == 2
    # The domain defaults of the largest maze (genomes up to 4 x cells,
    # paths of 2 x cells) are inside the caps.
    assert 4 * MAX_MAZE_CELLS <= MAX_GENOME_LEN and 2 * MAX_MAZE_CELLS <= MAX_PATH_LEN


def test_suite_over_the_task_cap_exits_1_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)  # two arms, one chain instance
    doc["runs_per_arm"] = 10**20
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert f"over {cli.MAX_TASKS}" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()
    # The cap counts arms x instances x runs; parsing builds no task.
    doc["runs_per_arm"] = cli.MAX_TASKS // 2
    SuiteSpec.from_dict(doc)
    doc["runs_per_arm"] += 1
    with pytest.raises(ConfigError, match=f"suite has {cli.MAX_TASKS + 2} runs"):
        SuiteSpec.from_dict(doc)


def test_oversized_chain_exits_1_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    # 20000^2 * 2 DP transitions; the cap is read off the two sizes, so
    # parsing builds no alphabet-sized list.
    doc["domain"].update(alphabet_size=20000, sequence_length=2)
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert "too large for exact solving" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()
    assert not (out / "error_manifest.json").exists()


def test_chain_scores_past_the_float_range_exit_1_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["domain"]["target_bigrams"] = [[0, 1, 1e308], [1, 0, 1e308]]
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert "chain scores may overflow" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


def test_arm_over_the_run_budget_exits_1_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)  # population_size 10
    doc["arms"][1]["run"] = {"max_generations": 10**20}
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert "arm ace-ea" in err and f"over {cli.MAX_RUN_EVALUATIONS}" in err
    assert not (out / "records.jsonl").exists()
    # The budget counts population_size x max_generations of each arm.
    doc["arms"][1]["run"] = {"max_generations": cli.MAX_RUN_EVALUATIONS // 10}
    SuiteSpec.from_dict(doc)
    doc["arms"][1]["run"]["population_size"] = 11
    evaluations = 11 * (cli.MAX_RUN_EVALUATIONS // 10)
    with pytest.raises(ConfigError, match=f"arm ace-ea: a run makes {evaluations} evaluations"):
        SuiteSpec.from_dict(doc)


def test_shipped_configs_are_far_under_the_run_budget():
    configs = Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(configs.glob("*.json")):
        for arm in SuiteSpec.from_file(path).arms:
            budget = arm.config.population_size * arm.config.max_generations
            assert budget * 1000 < cli.MAX_RUN_EVALUATIONS, (path, arm.name)


def test_shipped_configs_are_far_under_the_task_cap():
    configs = Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(configs.glob("*.json")):
        spec = SuiteSpec.from_file(path)
        assert len(build_tasks(spec)) * 1000 < cli.MAX_TASKS, path


def _plant(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("gca", "lambda"), math.nan),
        (("gca", "theta_w"), math.nan),
        (("arms", 1, "gca"), {"tau": math.inf}),
        (("domain", "noise_penalty"), math.nan),
        (("domain", "noise_penalty"), -math.inf),
        (("gca", "lambda"), 10**400),  # an integer literal past the float range
        (("runs_per_arm",), -(10**400)),
    ],
)
def test_non_finite_suite_number_exits_1_before_any_run(tmp_path, capsys, path, value):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    _plant(doc, path, value)
    suite_path = write_suite(tmp_path, doc)  # json.dumps writes NaN / Infinity
    assert cli.main(["run", "--config", str(suite_path)]) == 1
    err = capsys.readouterr().err
    assert "non-finite number" in err and str(suite_path) in err
    assert not (out / "records.jsonl").exists()


def test_integer_past_the_float_range_is_a_config_error_where_a_float_goes(tmp_path):
    doc = tiny_chain_suite(tmp_path / "out")
    doc["gca"]["tau"] = 10**400  # a library caller's dict skips the JSON reader
    with pytest.raises(ConfigError, match="gca.tau must be float"):
        SuiteSpec.from_dict(doc)


def test_non_finite_chain_spec_exits_1(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"alphabet_size": 4, "sequence_length": 5, "noise_penalty": NaN}')
    assert cli.main(["oracle", "--spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert "non-finite number NaN" in err and str(spec_path) in err


@pytest.mark.parametrize(
    "old, new",
    [('"lambda": 0.15', '"lambda": Infinity'), ("0.75", "NaN"), ("0.75", "1e999"),
     ("0.75", "1" + "0" * 400)],
)
def test_non_finite_model_file_exits_1(tmp_path, capsys, old, new):
    from ace.gca import GcaModel, serialize_model

    model = GcaModel(["t0", "t1", "t2", "t3"], weights={(0, 1): 0.75})
    text = serialize_model(model)
    assert old in text
    donor = tmp_path / "donor.json"
    donor.write_text(text.replace(old, new))
    assert cli.main(["model", "--path", str(donor)]) == 1
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["arms"][1]["warm_start_model"] = str(donor)
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.count(f"model file {donor}: model document: non-finite number") == 2
    assert not (out / "records.jsonl").exists()


@pytest.mark.parametrize("command, what", [
    (["run", "--config"], "suite config"),
    (["stats", "--records"], "records file"),
    (["oracle", "--spec"], "chain spec"),
    (["model", "--path"], "model file"),
    (["run", "--config"], "warm-start model file"),
], ids=["suite", "records", "chain-spec", "model", "warm-start"])
def test_file_that_is_not_utf8_exits_1(tmp_path, capsys, command, what):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    path = bad
    out = tmp_path / "out"
    if what.startswith("warm-start"):
        what = "model file"
        doc = tiny_chain_suite(out)
        doc["arms"][1]["warm_start_model"] = str(bad)
        path = write_suite(tmp_path, doc)
    assert cli.main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {what} {bad} is not valid JSON: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("support, message", [
    ([[1, 0, 2]], "support[0]: support for (1, 0), which has no weight entry"),
    ([[0, 1, 0]], "support[0]: support count must be >= 1, got 0"),
])
def test_bad_support_entry_exits_1_before_any_run(tmp_path, capsys, support, message):
    from ace.gca import GcaModel, serialize_model

    doc = json.loads(serialize_model(GcaModel(["t0", "t1", "t2", "t3"], weights={(0, 1): 0.75})))
    doc["support"] = support
    donor = tmp_path / "donor.json"
    donor.write_text(json.dumps(doc))
    assert cli.main(["model", "--path", str(donor)]) == 1
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["arms"][1]["warm_start_model"] = str(donor)
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.count(f"model file {donor}: {message}") == 2
    assert not (out / "records.jsonl").exists()


BAD_THRESHOLDS = [
    ("theta_w", "w", -1.0, "weight_min must be >= 0"),
    ("theta_s", "s", -4, "support_min must be >= 0"),
    ("theta_l", "l", -2.0, "lift_min must be >= 0"),
    ("theta_eff", "eff", 7.0, "effectiveness_min must lie in [0, 1]"),
]


@pytest.mark.parametrize("section", ["suite", "arm"])
@pytest.mark.parametrize("key, _model_key, value, message", BAD_THRESHOLDS)
def test_bad_threshold_in_suite_exits_1_before_any_run(
    tmp_path, capsys, section, key, _model_key, value, message
):
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    (doc["gca"] if section == "suite" else doc["arms"][1].setdefault("gca", {}))[key] = value
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert f"{message}, got {value}" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()


@pytest.mark.parametrize("_key, model_key, value, message", BAD_THRESHOLDS)
def test_bad_threshold_in_model_file_exits_1(tmp_path, capsys, _key, model_key, value, message):
    from ace.gca import GcaModel, serialize_model

    doc = json.loads(serialize_model(GcaModel(["t0", "t1", "t2", "t3"])))
    doc["thresholds"][model_key] = value
    donor = tmp_path / "donor.json"
    donor.write_text(json.dumps(doc))
    assert cli.main(["model", "--path", str(donor)]) == 1
    out = tmp_path / "out"
    suite = tiny_chain_suite(out)
    suite["arms"][1]["warm_start_model"] = str(donor)
    assert cli.main(["run", "--config", str(write_suite(tmp_path, suite))]) == 1
    assert capsys.readouterr().err.count(f"model file {donor}: model: {message}") == 2
    assert not (out / "records.jsonl").exists()


@pytest.mark.parametrize("save", [False, True])
def test_guided_models_serialized_only_when_saved(tmp_path, monkeypatch, save):
    real = cli.gca.serialize_model
    calls = []
    monkeypatch.setattr(cli.gca, "serialize_model", lambda m: calls.append(m) or real(m))
    suite = SuiteSpec.from_dict(tiny_chain_suite(tmp_path / "r"))
    records = orchestrate(suite, tmp_path / "r", save_models=save)
    guided = sum(r["guided"] for r in records)
    assert guided == 2
    assert len(calls) == (guided if save else 0)
    assert len(list((tmp_path / "r").glob("gca_*.json"))) == len(calls)


def chain_domain(doc):
    [(_, spec)] = cli._domain_instances(doc)
    return cli.build_domain(spec)


@pytest.mark.parametrize("bigrams, message", [
    ([["0", "1", "2"]],
     "target_bigrams[0] must be [from, to, reward] with integer ids and a reward of type float, "
     "got ['0', '1', '2']"),
    ([[0, 1, 5.0], [1.9, 2, 1.0]], "target_bigrams[1] must be [from, to, reward]"),
    ([[True, 1, 1.0]], "target_bigrams[0] must be [from, to, reward]"),
    ([[0, 1, "2"]], "target_bigrams[0] must be [from, to, reward]"),
    ([[0, 1, False]], "target_bigrams[0] must be [from, to, reward]"),
    ([[0, 1]], "target_bigrams[0] must be [from, to, reward]"),
    ([[0, 1, 2.0, 3.0]], "target_bigrams[0] must be [from, to, reward]"),
    ([5], "target_bigrams[0] must be [from, to, reward]"),
    ([[0, 1, 2.0], [1, 2, 1.0], [0, 1, 7.0]], "target_bigrams[2]: pair (0, 1) is listed twice"),
], ids=["string-ids", "float-id", "bool-id", "string-reward", "bool-reward", "two-long",
        "four-long", "no-list", "duplicate-pair"])
def test_malformed_target_bigram_exits_1_naming_it(tmp_path, capsys, bigrams, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"alphabet_size": 4, "sequence_length": 3, "target_bigrams": bigrams}))
    assert cli.main(["oracle", "--spec", str(spec_path)]) == 1
    assert f"error: chain spec.{message}" in capsys.readouterr().err
    out = tmp_path / "out"
    doc = tiny_chain_suite(out)
    doc["domain"]["target_bigrams"] = bigrams
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert f"error: domain.{message}" in capsys.readouterr().err
    assert not out.exists()


def test_chain_spec_of_another_kind_exits_1(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "maze", "alphabet_size": 4, "sequence_length": 3,
                                     "target_bigrams": [[0, 1, 7.0]]}))
    assert cli.main(["oracle", "--spec", str(spec_path)]) == 1
    assert "error: chain spec.kind must be 'chain', got 'maze'" in capsys.readouterr().err
    spec_path.write_text(json.dumps({"kind": "chain", "alphabet_size": 4, "sequence_length": 3,
                                     "target_bigrams": [[0, 1, 7]]}))
    assert cli.main(["oracle", "--spec", str(spec_path)]) == 0
    assert "optimum=6.8" in capsys.readouterr().out


def test_parsing_a_suite_leaves_its_document_whole(tmp_path):
    # The triple reader empties the list it reads; a chain suite's bigrams
    # are read again by build_tasks (and by bench/run.py), so each reading
    # gets a copy.
    doc = tiny_chain_suite(tmp_path / "out")
    doc["domain"]["target_bigrams"] = [[0, 1, 5.0], [2, 3, 1.5]]
    before = copy.deepcopy(doc)
    suite = SuiteSpec.from_dict(doc)
    assert len(build_tasks(suite)) == 4
    assert doc == before
    assert suite.domain == before["domain"]


@pytest.mark.parametrize("command, text, key", [
    (["run", "--config"], '{"runs_per_arm": 0, "runs_per_arm": 10}', "runs_per_arm"),
    (["oracle", "--spec"], '{"alphabet_size": 4, "sequence_length": 3, "alphabet_size": 5}',
     "alphabet_size"),
    (["stats", "--records"], '{"records": [], "records": [{"arm": "a"}]}', "records"),
], ids=["suite", "chain-spec", "records"])
def test_key_given_twice_exits_1_naming_it(tmp_path, capsys, command, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path} is not valid JSON: key {key!r} given twice in one object" in err
    assert "Traceback" not in err


def test_oracle_and_run_read_a_chain_spec_alike(tmp_path, capsys):
    doc = {"alphabet_size": 4, "sequence_length": 5, "target_bigrams": [], "noise_penalty": 0.5}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    assert cli.main(["oracle", "--spec", str(spec_path)]) == 0
    assert "optimum=-2.0" in capsys.readouterr().out
    assert chain_domain(dict(doc, kind="chain")).optimum == -2.0
    # an absent key takes the default
    del doc["target_bigrams"]
    spec_path.write_text(json.dumps(doc))
    assert cli.main(["oracle", "--spec", str(spec_path)]) == 0
    optimum = chain_domain(dict(doc, kind="chain")).optimum
    assert optimum > 0 and f"optimum={optimum!r}" in capsys.readouterr().out


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli.main(["frobnicate"]) == 1  # unknown command -> usage error
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{}")
    assert cli.main(["model", "--path", str(bad_model)]) == 1  # malformed input
    assert cli.main(["model", "--path", str(tmp_path / "missing.json")]) == 1  # unreadable

    suite_path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "x"))
    monkeypatch.setattr(cli, "orchestrate", lambda *a, **k: 1 / 0)
    assert cli.main(["run", "--config", str(suite_path)]) == 2  # runtime failure

    err = capsys.readouterr().err
    assert "usage" in err or "error" in err


# -- unwritable outputs -------------------------------------------------------------


def _no_run(task, model_path):
    raise AssertionError("a run started")


@pytest.mark.parametrize("where", ["a file", "under a file", "records file a directory"])
def test_run_to_an_unwritable_output_exits_1_before_any_run(tmp_path, capsys, monkeypatch, where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = {
        "a file": taken, "under a file": taken / "sub", "records file a directory": tmp_path / "o",
    }[where]
    (tmp_path / "o" / "records.jsonl").mkdir(parents=True)
    suite_path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "unused"))
    monkeypatch.setattr(cli, "_execute_run", _no_run)
    assert cli.main(["run", "--config", str(suite_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err
    assert not (tmp_path / "o" / "error_manifest.json").exists()


def test_stats_to_an_unwritable_output_exits_1_before_printing(tmp_path, capsys):
    suite_path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "out"))
    assert cli.main(["run", "--config", str(suite_path)]) == 0
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    records = str(tmp_path / "out" / "records.json")
    assert cli.main(["stats", "--records", records, "--out", str(taken)]) == 1
    out, err = capsys.readouterr()
    assert str(taken) in err and "Traceback" not in err
    assert out == ""


def test_maze_to_a_directory_exits_1(tmp_path, capsys):
    assert cli.main(["maze", "--size", "4", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "Traceback" not in err


def test_os_error_inside_a_run_still_exits_2(tmp_path, capsys, monkeypatch):
    # Only making the output directory or opening its files is an input
    # error; an OSError a run raises is a runtime failure.
    def broken(task, model_path):
        raise OSError("simulated device error")

    suite_path = write_suite(tmp_path, tiny_chain_suite(tmp_path / "out"))
    monkeypatch.setattr(cli, "_execute_run", broken)
    assert cli.main(["run", "--config", str(suite_path)]) == 2
    assert "simulated device error" in capsys.readouterr().err
