"""Golden result fingerprints.

Three tiny suites run through the same orchestration as `ace-bench run`:
a maze suite with all four arm kinds on one curated instance, a chain
suite with a standard and a guided EA arm, and a maze suite whose PSO
arms turn around at dead ends and stop at a 40-step cap (the branches
of path construction the benchmark suites leave out: turnarounds, and
macro strides cut short by the cap).  The SHA-256 of their
records, leaving out the wall-clock field, must match the constants
below.  A behaviour-neutral change keeps them; a change that moves
results must update them and say why.
"""

from __future__ import annotations

import hashlib
import json

from ace.cli import SuiteSpec, orchestrate

MAZE_FINGERPRINT = "9cf905963f1e3e732d6427e5ea332004fbecb5f5a84fe1eb7efeb8189814f4db"
CHAIN_FINGERPRINT = "059970c1f0ffd26a76b07f7c3a5061e2b5d411c332ae0e204b7b3322e9149e13"
BACKTRACK_FINGERPRINT = "c900359c44ac08f1282a338bce3dc589b7f67c160b5e0cf90916622a7e07974b"

GCA = {
    "tau": 0.25, "epsilon": 0.1, "lambda": 1e-05, "gamma": 0.2,
    "theta_w": 0.3, "theta_s": 3, "theta_l": 1.4, "theta_eff": 0.1,
}
PSO = {
    "inertia": 0.4, "cognitive": 1.0, "social": 1.0, "heuristic_weight": 5.0,
    "guidance_weight": 3.0, "dead_end_mode": "terminate",
}
EA = {
    "crossover_rate": 0.5, "mutation_rate": 0.08, "elitism_fraction": 0.1,
    "tournament_size": 3, "min_len": 20, "max_len": 450,
}

MAZE_SUITE = {
    "suite_seed": 11,
    "runs_per_arm": 2,
    "run": {
        "population_size": 10, "max_generations": 12, "abstraction_period": 3,
        "max_new_macros_per_scan": 2, "prune_min_uses": 5,
    },
    "gca": GCA,
    "domain": {
        "kind": "maze", "width": 15, "height": 15, "path_slack": 6,
        "instances": [{"connectivity": 0.0, "maze_seed": 1007}],
    },
    "arms": [
        {"name": "std-pso", "explorer": "pso", "guided": False, "pso": PSO},
        {"name": "ace-pso", "explorer": "pso", "guided": True, "pso": PSO},
        {"name": "std-ea", "explorer": "ea", "guided": False, "ea": EA},
        {"name": "ace-ea", "explorer": "ea", "guided": True, "ea": EA,
         "gca": {"lambda": 5e-08}},
    ],
}

CAPPED_PSO = dict(PSO, dead_end_mode="backtrack", max_path_len=40)

BACKTRACK_SUITE = {
    "suite_seed": 13,
    "runs_per_arm": 2,
    "run": {
        "population_size": 8, "max_generations": 12, "abstraction_period": 3,
        "max_new_macros_per_scan": 2, "prune_min_uses": 5,
    },
    "gca": GCA,
    "domain": {
        "kind": "maze", "width": 10, "height": 10, "path_slack": 4,
        "instances": [
            {"connectivity": 0.0, "maze_seed": 1007},
            {"connectivity": 0.2, "maze_seed": 1007},
        ],
    },
    "arms": [
        {"name": "std-pso", "explorer": "pso", "guided": False, "pso": CAPPED_PSO},
        {"name": "ace-pso", "explorer": "pso", "guided": True, "pso": CAPPED_PSO},
    ],
}

CHAIN_SUITE = {
    "suite_seed": 5,
    "runs_per_arm": 2,
    "run": {"population_size": 20, "max_generations": 25, "abstraction_period": 5},
    "gca": {"tau": 1.0, "epsilon": 0.15, "lambda": 0.01, "gamma": 0.2},
    "domain": {
        "kind": "chain", "alphabet_size": 6, "sequence_length": 10,
        "target_bigrams": [[0, 1, 5.0], [2, 3, 3.0], [4, 5, 2.0]],
        "noise_penalty": 0.2,
    },
    "arms": [
        {"name": "std-ea", "explorer": "ea", "guided": False,
         "ea": {"crossover_rate": 0.6, "mutation_rate": 0.15, "tournament_size": 2}},
        {"name": "ace-ea", "explorer": "ea", "guided": True,
         "ea": {"crossover_rate": 0.6, "mutation_rate": 0.15, "tournament_size": 2}},
    ],
}


def fingerprint(records: list[dict]) -> str:
    lines = sorted(
        json.dumps({k: v for k, v in r.items() if k != "wall_clock_seconds"}, sort_keys=True)
        for r in records
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def suite_fingerprint(doc: dict, out) -> str:
    records = orchestrate(SuiteSpec.from_dict(doc), out, parallelism=1, save_models=False)
    return fingerprint(records)


def test_maze_suite_fingerprint(tmp_path):
    assert suite_fingerprint(MAZE_SUITE, tmp_path) == MAZE_FINGERPRINT


def test_chain_suite_fingerprint(tmp_path):
    assert suite_fingerprint(CHAIN_SUITE, tmp_path) == CHAIN_FINGERPRINT


def test_backtrack_capped_pso_fingerprint(tmp_path):
    assert suite_fingerprint(BACKTRACK_SUITE, tmp_path) == BACKTRACK_FINGERPRINT
