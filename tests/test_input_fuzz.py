"""No document makes a reader fail with anything but ConfigError or
ParseError.

Each test mutates a valid document a few times (drops a key or an entry,
swaps in a value of the wrong type or a huge integer, or nests the value
in junk) and hands it to one reader: suites to SuiteSpec.from_dict and
build_tasks, chain specs to parse_chain, records files to `ace-bench
stats`, and model files to deserialize_model.  Nothing is run: no suite,
and no chain solver.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ace.cli as cli
from ace.chain import ChainSpec
from ace.cli import SuiteSpec, build_tasks, parse_chain
from ace.errors import ConfigError, ParseError
from ace.gca import GcaModel, MacroOperation, PairTable, deserialize_model, serialize_model

HUGE = (10**9, 10**12, 2**63, -(2**63), 10**30, 10**400, -(10**400))
JUNK = ("x", "", 1.5, -1, 0, True, False, None, [], {}, [[]], {"junk": 1}, [1, "a", None])

MAZE_DOMAIN = {
    "kind": "maze", "width": 5, "height": 4, "path_slack": 6,
    "instances": [{"connectivity": 0.3, "maze_seed": 1}, {"connectivity": 1.0, "maze_seed": 2}],
}
CHAIN_SPEC = {
    "kind": "chain", "alphabet_size": 6, "sequence_length": 8,
    "target_bigrams": [[0, 1, 5.0], [2, 3, 3.0]], "noise_penalty": 0.2,
}
ARMS = [
    {"name": "std-pso", "explorer": "pso", "guided": False,
     "pso": {"inertia": 0.4, "dead_end_mode": "terminate"}},
    {"name": "ace-ea", "explorer": "ea", "guided": True,
     "ea": {"min_len": 2, "max_len": 30, "tournament_size": 3, "mutation_rate": 0.2},
     "run": {"population_size": 6}, "gca": {"lambda": 0.01}, "warm_start_model": "donor"},
]
SUITES = [
    {
        "suite_seed": 3, "runs_per_arm": 2, "parallelism": 2, "output_dir": "unused",
        "notes": {"why": "a base document"},
        "run": {"population_size": 4, "max_generations": 2, "abstraction_period": 1,
                "stop_on_success": True},
        "gca": {"tau": 1.0, "epsilon": 0.1, "lambda": 0.05, "gamma": 0.2, "theta_w": 0.3,
                "theta_s": 3, "theta_l": 1.4, "theta_eff": 0.1},
        "domain": domain,
        "arms": ARMS,
    }
    for domain in (MAZE_DOMAIN, CHAIN_SPEC)
]
RECORD = {
    "arm": "ace-pso", "connectivity": 0.3, "success": True, "best_fitness": 9800.0,
    "success_generation": 4, "path_efficiency": 0.9, "macros_created": 2,
    "macros_surviving": 1, "mean_macro_effectiveness": 0.5, "wall_clock_seconds": 0.1,
}
RECORDS = {"suite": {"suite_seed": 3}, "records": [RECORD, dict(RECORD, success=False)]}


def _model_doc() -> dict:
    model = GcaModel(
        atomic_ops=["N", "E", "S", "W"],
        weights=PairTable({(0, 1): 0.5, (1, 2): 0.25, (4, 0): 0.1}, {(0, 1): 3, (1, 2): 1}),
        macros=[MacroOperation(id=4, left=0, right=1, uses=3, successful_uses=1),
                MacroOperation(id=5, left=4, right=2, pruned=True)],
    )
    return json.loads(serialize_model(model))


MODEL = _model_doc()


def _paths(doc, path=()):
    """The path of every value inside doc, through dict keys and list
    indices, the document itself first."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, (*path, key))


def mutated(data, doc):
    """doc after one to three mutations drawn from data."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        kind = data.draw(st.sampled_from(("drop", "type", "huge", "nest")))
        old = doc
        for key in path:
            old = old[key]
        if kind == "drop":
            new = None
        elif kind == "type":
            new = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
        elif kind == "huge":
            new = data.draw(st.sampled_from(HUGE))
        else:
            new = data.draw(st.sampled_from(({"junk": old}, [old], {"": [[old]]})))
        if not path:
            doc = new
            continue
        *parents, last = path
        parent = doc
        for key in parents:
            parent = parent[key]
        if kind == "drop":
            del parent[last]
        else:
            parent[last] = new
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "donor.json").write_text(serialize_model(GcaModel(atomic_ops=["N", "E", "S", "W"])))
    chain_ops = ChainSpec(alphabet_size=CHAIN_SPEC["alphabet_size"]).atomic_op_names
    (path / "chain_donor.json").write_text(serialize_model(GcaModel(atomic_ops=chain_ops)))
    (path / "broken.json").write_text("{")
    return path


def _confine_donors(doc, workdir) -> None:
    """Point every string warm_start_model at a file under workdir (a good
    donor over the base document's vocabulary, a broken one or none), so
    that no generated path is opened."""
    arms = doc.get("arms") if isinstance(doc, dict) else None
    domain = doc.get("domain") if isinstance(doc, dict) else None
    chain = isinstance(domain, dict) and domain.get("kind") == "chain"
    good = "chain_donor.json" if chain else "donor.json"
    for arm in arms if isinstance(arms, list) else ():
        if isinstance(arm, dict) and isinstance(arm.get("warm_start_model"), str):
            name = (good, "broken.json", "absent.json")[len(arm["warm_start_model"]) % 3]
            arm["warm_start_model"] = str(workdir / name)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_suite_parses_or_raises_a_config_error(workdir, data):
    doc = mutated(data, data.draw(st.sampled_from(SUITES)))
    _confine_donors(doc, workdir)
    try:
        assert build_tasks(SuiteSpec.from_dict(doc))
    except (ConfigError, ParseError):
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_chain_spec_parses_or_raises_a_config_error(data):
    try:
        parse_chain(mutated(data, CHAIN_SPEC), "chain spec")
    except (ConfigError, ParseError):
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_records_file_gives_exit_0_or_1(workdir, data):
    path = workdir / "records.json"
    path.write_text(json.dumps(mutated(data, RECORDS)))
    assert cli.main(["stats", "--records", str(path)]) in (0, 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_file_loads_or_raises_a_parse_error(data):
    try:
        deserialize_model(json.dumps(mutated(data, MODEL)))
    except (ConfigError, ParseError):
        pass
