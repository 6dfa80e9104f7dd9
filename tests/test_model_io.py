"""Model files are written row by row and read triple by triple.

serialize_model joins each row of the table into one string and the rows
once into the result; deserialize_model stores each checked triple as it
reads it.  These tests hold the text to the reference writer of
tests/helpers.py, the loaded table to the file's order, and both
functions to a memory bound on a 12,000-entry model.  save_model writes
exactly the serialized text, so a saved file re-serializes to its bytes.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from ace.errors import ConfigError, ParseError
from ace.gca import GcaModel, deserialize_model, load_model, save_model, serialize_model
from helpers import (
    PYTHON,
    make_model,
    model_io_peaks,
    print_report,
    random_model,
    reference_serialize_model,
    synthetic_model,
)


def _models():
    yield "empty", GcaModel(["a", "b", "c"])
    yield "no support", make_model(weights={(2, 0): 0.5, (0, 1): 0.25, (0, 0): 1e-9})
    # Row 1 has no supported pair, so the support list skips it.
    yield "a row without support", make_model(
        weights={(1, 1): 0.5, (1, 0): 2.0, (0, 3): 0.125, (3, 2): 7.0, (3, 0): 0.0},
        support={(0, 3): 4, (3, 0): 1},
    )
    yield "one entry", make_model(weights={(3, 3): 3.0}, support={(3, 3): 9})
    yield "synthetic", synthetic_model(entries=600, vocab=30, supported=200, seed=5)
    for seed in range(30):
        yield f"random {seed}", random_model(random.Random(seed))


def _non_finite_models():
    for bad in (math.inf, -math.inf, math.nan):
        # One row mixes the bad weight with finite ones; the others stay
        # on the repr path.
        yield make_model(
            weights={(0, 1): 0.5, (1, 0): bad, (1, 2): 0.1 + 0.2, (2, 2): 1e300},
            support={(1, 0): 3},
        )


@pytest.mark.parametrize("name, model", list(_models()), ids=lambda x: x if isinstance(x, str) else "")
def test_text_matches_the_reference_writer_and_loads_in_file_order(name, model):
    text = serialize_model(model)
    assert text == reference_serialize_model(model)
    again = deserialize_model(text)
    assert again == model
    # Slots follow the file: ascending (i, j), the order the rows are written.
    support = model.weights.support()
    expected = sorted((pair, w, support.get(pair, 0)) for pair, w in model.weights.items())
    assert list(again.weights.entries()) == expected
    assert serialize_model(again) == text


@pytest.mark.parametrize("name, model", list(_models())[:5],
                         ids=lambda x: x if isinstance(x, str) else "")
def test_saved_file_holds_the_text_and_reserializes_to_its_own_bytes(tmp_path, name, model):
    path = tmp_path / "model.json"
    save_model(model, path)
    data = path.read_bytes()
    assert data == serialize_model(model).encode("utf-8")
    assert serialize_model(load_model(path)).encode("utf-8") == data


def test_saving_where_a_directory_stands_names_the_path(tmp_path):
    taken = tmp_path / "gca_ace-ea_chain_0.json"
    taken.mkdir()
    with pytest.raises(ConfigError, match="cannot write model file") as caught:
        save_model(make_model(weights={(0, 1): 0.5}), taken)
    assert str(taken) in str(caught.value)


@pytest.mark.parametrize("model", list(_non_finite_models()), ids=["inf", "-inf", "nan"])
def test_non_finite_weights_match_the_reference_writer(model):
    text = serialize_model(model)
    assert text == reference_serialize_model(model)
    with pytest.raises(ParseError, match="non-finite number"):
        deserialize_model(text)


@pytest.mark.parametrize("weights, support, message", [
    # A duplicate with a zero count reports the zero count first.
    ([[0, 1, 0.5]], [[0, 1, 2], [0, 1, 0]], "support[1]: support count must be >= 1, got 0"),
    # A missing weight is reported before a zero count.
    ([[0, 1, 0.5]], [[1, 1, 0]], "support[0]: support for (1, 1), which has no weight entry"),
    # Every weight triple is checked before the first support triple.
    ([[0, 1, 0.5], [0, 1, 0.5]], [[2, 2, 0]], "weights[1]: duplicate entry (0, 1)"),
])
def test_table_errors_keep_their_order(weights, support, message):
    doc = json.loads(serialize_model(make_model(weights={(0, 1): 0.5})))
    text = json.dumps({**doc, "weights": weights, "support": support})
    with pytest.raises(ParseError) as caught:
        deserialize_model(text)
    assert str(caught.value) == message


def test_a_mistyped_table_is_named_not_printed_whole():
    doc = json.loads(serialize_model(synthetic_model(entries=2_000, vocab=60, supported=0)))
    doc["weights"] = {str(k): entry for k, entry in enumerate(doc["weights"])}
    with pytest.raises(ParseError) as caught:
        deserialize_model(json.dumps(doc))
    message = str(caught.value)
    assert message.startswith("model.weights must be list, got {'0': [")
    assert len(message) == len("model.weights must be list, got ") + 80


def test_model_io_peaks_stay_bounded():
    # V = 120, 12,000 stored pairs, 4,000 of them supported: about 0.9 MB
    # of text.  Holding one string per entry, or a weights dict and a
    # support dict beside the table, reads 4.0x and 6.9x here.
    model = synthetic_model()
    loading, writing = model_io_peaks(model)
    print_report(f"Model file peaks over the text ({PYTHON}): "
                 f"loading {loading:.2f}x, writing {writing:.2f}x")
    assert loading <= 4.0 and writing <= 3.0, (
        f"peaks over the text: loading {loading:.2f}x, writing {writing:.2f}x"
    )

