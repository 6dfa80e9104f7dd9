"""Exception types shared across the package."""


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
