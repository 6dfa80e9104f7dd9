from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

import ace.cli as cli
from ace.chain import ChainSpec, brute_force_optimum
from ace.cli import SuiteSpec, build_tasks, derive_seed, orchestrate
from ace.errors import ConfigError


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


def test_task_expansion_counts(tmp_path):
    doc = tiny_chain_suite(tmp_path)
    doc["runs_per_arm"] = 5
    suite = SuiteSpec.from_dict(doc)
    tasks = build_tasks(suite)
    assert len(tasks) == 2 * 5  # arms x runs, single chain instance
    assert len({t["seed"] for t in tasks}) == len(tasks)


def test_maze_grid_expansion():
    suite = SuiteSpec.from_dict(
        {
            "suite_seed": 1,
            "runs_per_arm": 5,
            "domain": {
                "kind": "maze",
                "connectivity_levels": [0.0, 0.3, 0.6, 1.0],
                "mazes_per_level": 2,
            },
            "arms": [
                {"name": "a", "explorer": "pso", "guided": True},
                {"name": "b", "explorer": "pso", "guided": False},
                {"name": "c", "explorer": "ea", "guided": True},
                {"name": "d", "explorer": "ea", "guided": False},
            ],
        }
    )
    assert len(build_tasks(suite)) == 4 * 8 * 5


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
    seq = orchestrate(suite, tmp_path / "a", parallelism=1, save_models=False)
    par = orchestrate(suite, tmp_path / "b", parallelism=2, save_models=False)

    def canon(rows):
        out = []
        for r in sorted(rows, key=lambda r: (r["arm"], r["run_index"])):
            r = dict(r)
            r.pop("wall_clock_seconds")
            out.append(r)
        return out

    assert canon(seq) == canon(par)


def test_orchestrate_crash_preserves_partial_results(tmp_path, monkeypatch):
    suite = SuiteSpec.from_dict(tiny_chain_suite(tmp_path / "c"))
    real = cli._execute_run
    calls = {"n": 0}

    def flaky(task):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("simulated abort")
        return real(task)

    monkeypatch.setattr(cli, "_execute_run", flaky)
    with pytest.raises(RuntimeError):
        orchestrate(suite, tmp_path / "c")
    lines = (tmp_path / "c" / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2  # exactly the completed runs
    manifest = json.loads((tmp_path / "c" / "error_manifest.json").read_text())
    assert manifest["completed_runs"] == 2
    assert "simulated abort" in manifest["error"]


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


def test_log_level_env_var(monkeypatch, capsys):
    monkeypatch.setenv("ACE_LOG", "debug")
    assert cli.main(["oracle", "--spec", "default"]) == 0
    monkeypatch.setenv("ACE_LOG", "not-a-level")  # silently falls back
    assert cli.main(["oracle", "--spec", "default"]) == 0


def test_oracle_command_matches_solver(capsys):
    rc = cli.main(["oracle", "--spec", "default"])
    assert rc == 0
    out = capsys.readouterr().out
    value, witness = brute_force_optimum(ChainSpec())
    assert f"optimum={value!r}" in out
    assert " ".join(f"t{t}" for t in witness) in out


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


def test_maze_command_writes_file(tmp_path, capsys):
    target = tmp_path / "maze.txt"
    rc = cli.main([
        "maze", "--width", "5", "--height", "4", "--connectivity", "0.5",
        "--seed", "9", "--out", str(target),
    ])
    assert rc == 0
    from ace.maze import maze_from_text

    parsed = maze_from_text(target.read_text())
    assert (parsed.width, parsed.height) == (5, 4)


def test_model_command_inspects(tmp_path, capsys):
    from ace.gca import fresh_model, save_model

    model = fresh_model(["N", "E", "S", "W"])
    model.weights[(0, 1)] = 0.75
    model.add_macro(0, 1)
    path = tmp_path / "model.json"
    save_model(model, path)
    rc = cli.main(["model", "--path", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "model OK" in out
    assert "macro 4" in out


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
        "fitness": lambda: doc["domain"].setdefault("fitness", {}),
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
        (_maze_suite, "fitness", "step_cots"),
        (_maze_suite, "domain", "path_slak"),
        (_maze_suite, "pso", "inertai"),
    ],
)
def test_unknown_config_key_exits_1_before_any_run(tmp_path, capsys, make, section, key):
    out = tmp_path / "out"
    suite_path = write_suite(tmp_path, _typo(make(out), section, key))
    assert cli.main(["run", "--config", str(suite_path)]) == 1
    assert key in capsys.readouterr().err
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
        ({"instances": None, "connectivity_levels": [0.0, -0.5]}, "connectivity"),
        ({"instances": None, "connectivity_levels": ["x"]}, "connectivity_levels"),
    ],
)
def test_bad_maze_shape_exits_1_before_any_run(tmp_path, capsys, monkeypatch, domain, message):
    out = tmp_path / "out"
    doc = _maze_suite(out)
    doc["domain"].update(domain)
    if doc["domain"]["instances"] is None:
        del doc["domain"]["instances"]
    # the check reads the instance specs; no maze is generated while parsing
    monkeypatch.setattr(cli, "generate_maze", lambda *a: pytest.fail("maze generated"))
    assert cli.main(["run", "--config", str(write_suite(tmp_path, doc))]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "records.jsonl").exists()
    assert not (out / "error_manifest.json").exists()


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


def chain_domain(doc):
    [(_, spec)] = cli._domain_instances(doc)
    return cli.build_domain(spec)


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
