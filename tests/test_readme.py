"""README.md documents every suite key and every command-line flag."""

from __future__ import annotations

import argparse
from pathlib import Path

import ace.cli as cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def suite_keys() -> set[str]:
    """Every key a suite document may hold, in any section."""
    keys = set()
    for schema in (cli.SUITE, cli.RUN, cli.GCA, cli.CHAIN, cli.MAZE, cli.MAZE_INSTANCE, cli.ARM):
        keys.update(schema)
    for params_cls, _ in cli.EXPLORERS.values():
        keys.update(cli._schema(params_cls))
    return keys


def cli_flags() -> set[str]:
    """Every --flag of every ace-bench subcommand."""
    flags = set()
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for option in sub._actions:
                    flags.update(o for o in option.option_strings if o.startswith("--"))
    return flags - {"--help"}


def test_every_suite_key_is_documented():
    keys = suite_keys()
    assert len(keys) >= 52
    assert sorted(k for k in keys if f"`{k}`" not in README) == []


def test_every_flag_is_documented():
    flags = cli_flags()
    assert {"--config", "--parallelism", "--no-models", "--records", "--spec", "--path"} <= flags
    assert sorted(f for f in flags if f not in README) == []


def test_every_size_cap_is_documented():
    for name in ("MAX_TASKS", "MAX_RUN_EVALUATIONS", "MAX_PARALLELISM", "MAX_MAZE_CELLS",
                 "MAX_GENOME_LEN", "MAX_TOURNAMENT_SIZE", "MAX_PATH_LEN", "MAX_DP_STATES"):
        assert f"`{name}`" in README or f".{name}`" in README, name
