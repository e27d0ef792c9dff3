"""Field value rules: the one test and the one description of each kind of value.

A rule is a pair (test, what a valid value is). `check` applies one to a
field and raises a `ConfigError` reading "{field} must be {what}, got
{value!r}"; `check_keys` rejects the keys of a mapping that name no field,
and `named(where)` prefixes the message of a ValueError raised within it
with where the value sits, as in `classifiers[0]: ...`.
Every config object (window and transform specs, class profiles,
classifier specs, the experiment config) and `attackers.train` check their
fields through these rules, so a config read from JSON and one built in
code meet the same tests and messages. No value is coerced: a bool is never
a number and a numeric string is not one either.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite real number; raises OverflowError for an integer too large
    to be a float, which `check` reads as invalid."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def integer_at_least(low: int):
    return (lambda v: is_int(v) and v >= low, f"an integer >= {low}")


def integer_in(low: int, high: int):
    return (lambda v: is_int(v) and low <= v <= high, f"an integer in [{low}, {high}]")


COUNT = integer_at_least(1)
COUNT_LIST = (lambda v: isinstance(v, (list, tuple)) and all(map(COUNT[0], v)),
              "a list of integers >= 1")
SEED = integer_at_least(0)
POSITIVE = (lambda v: is_number(v) and v > 0, "a finite number > 0")
NON_NEGATIVE = (lambda v: is_number(v) and v >= 0, "a finite number >= 0")
FRACTION = (lambda v: is_number(v) and 0 < v < 1, "a number in (0, 1)")
STRING = (lambda v: isinstance(v, str), "a string")


def check(value, rule, field: str) -> None:
    """Raise a ConfigError naming `field` unless `rule` holds for value."""
    test, described = rule
    try:
        valid = test(value)
    except OverflowError:  # an integer too large to be a float
        valid = False
    if not valid:
        raise ConfigError(f"{field} must be {described}, got {value!r}")


def check_keys(doc: dict, allowed) -> None:
    """Raise a ConfigError naming the keys of doc that are not allowed."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        expected = f"some of {sorted(allowed)}" if allowed else "none"
        raise ConfigError(f"unknown key(s) {unknown}; expected {expected}")


@contextmanager
def named(where: str):
    """Re-raise a ValueError from the block as a ConfigError reading
    "{where}: {message}"."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
