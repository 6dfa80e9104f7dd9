"""Exception types shared across the package, the range check, and the
readers that check the keys, types and triples of every input document."""

import sys


class AceError(Exception):
    """Base class for all package errors."""


class ConfigError(AceError):
    """Invalid configuration value or malformed config file."""


class DomainError(AceError):
    """Operation called with arguments outside its domain."""


class ParseError(AceError):
    """Malformed serialized artifact (model file, records)."""


class InternalError(AceError):
    """Invariant violation that should be impossible by construction."""


class InsufficientDataError(AceError):
    """Too few observations for the requested statistic."""


class UndefinedEffectError(AceError):
    """Effect size is undefined (zero pooled variance)."""


def check_range(name: str, value, low=None, high=None, *, open_low=False, open_high=False) -> None:
    """Raise ConfigError unless value lies between low and high (an open
    end excludes its bound, an absent one does not bound), NaN never.
    The message names the setting, its range and the value."""
    above = low is None or (value > low if open_low else value >= low)
    below = high is None or (value < high if open_high else value <= high)
    if above and below:
        return
    if high is None:
        rule = f"be {'>' if open_low else '>='} {low}"
    elif low is None:
        rule = f"be {'<' if open_high else '<='} {high}"
    else:
        rule = f"lie in {'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
    raise ConfigError(f"{name} must {rule}, got {value}")


# -- document readers ---------------------------------------------------------
#
# Every input document (suite, chain spec, records file, model file) is
# read through these functions.  Each takes the error class to raise:
# ConfigError for what a user writes, ParseError for what a run wrote.

# The value types an annotation names (`list[...]` checks the list); an
# int also passes for a float.  An annotation not listed admits any value.
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict, "list": list}


def _has_type(value, hint: str) -> bool:
    """Whether a value has the type an annotation names; a bool is no
    number, and an int passes for a float unless it overflows one."""
    base, _, rest = hint.partition(" | ")
    kind = _TYPES.get(base.partition("[")[0])
    if kind is None or (value is None and rest == "None"):
        return True
    if base == "float" and type(value) is int and abs(value) > sys.float_info.max:
        return False  # it would overflow when widened
    return isinstance(value, kind) and isinstance(value, bool) == (base == "bool")


def read_fields(doc, schema: dict[str, tuple[str, str]], where: str, error, required=()) -> dict:
    """Field name -> value for a JSON object read against a schema of key
    -> (field name, annotation).  A doc that is no object, a key outside
    the schema, a missing required key or a value of the wrong type
    raises error naming where; an int given for a float widens."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be an object")
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise error(
            f"unknown key(s) in {where}: {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(schema))})"
        )
    for key in required:
        if key not in doc:
            raise error(f"{where} is missing field '{key}'")
    values = {}
    for key, value in doc.items():
        name, hint = schema[key]
        if not _has_type(value, hint):
            # The value's repr is cut to 80 characters: a mistyped table is
            # not printed whole.
            raise error(f"{where}.{key} must be {hint}, got {value!r:.80}")
        if value is not None and hint.partition(" | ")[0] == "float":
            value = float(value)
        values[name] = value
    return values


def read_triples(entries: list, kind: str, noun: str, where: str, error):
    """(where[k], (from, to), value) for each entry k of a list of [from,
    to, value] triples: two integer ids and a value of the type kind names
    ("int", or "float", to which an int widens).  Any other entry raises
    error naming it.  Each entry is dropped from the list as it is read,
    so that the caller's table holds the only copy; a caller whose list
    must stay whole passes a copy.  Ranges and repeats are the caller's
    to check."""
    floats = kind == "float"
    number = (int, float) if floats else int
    for k, entry in enumerate(entries):
        entries[k] = None
        at = f"{where}[{k}]"
        # _has_type's rules, written out: the ids and the value are no
        # bool, and an int value passes for a float unless it overflows one.
        if isinstance(entry, list) and len(entry) == 3:
            i, j, value = entry
            if (
                isinstance(i, int) and isinstance(j, int) and isinstance(value, number)
                and bool not in (type(i), type(j), type(value))
                and not (floats and type(value) is int and abs(value) > sys.float_info.max)
            ):
                yield at, (i, j), float(value) if floats else value
                continue
        raise error(
            f"{at} must be [from, to, {noun}] with integer ids and a {noun} of type {kind}, "
            f"got {entry!r:.80}"
        )


def read_file(path, what: str, parse):
    """parse applied to the text of the file at path, each error naming
    the file: ConfigError when it cannot be read, ParseError when it is
    not UTF-8 or parse raises ValueError (text that is not valid JSON) or
    ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        return parse(text)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e
    except ValueError as e:  # UnicodeDecodeError is one
        raise ParseError(f"{what} {path} is not valid JSON: {e}") from e
    except ParseError as e:
        raise ParseError(f"{what} {path}: {e}") from e
