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
a number and a numeric string is not one either. `read_text` reads the
text of a JSON config and of a feature CSV, and `write_csv` writes every
CSV the package writes (`sweep.csv`, its pivots and the feature CSV) in one
dialect: UTF-8, LF line ends, the `csv` module's minimal quoting.
"""

from __future__ import annotations

import csv
import math
import numbers
from contextlib import contextmanager
from pathlib import Path


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


def part_of_range(n: int):
    return (lambda v: isinstance(v, range) and v.step == 1 and 0 <= v.start < v.stop <= n,
            f"a non-empty contiguous part of range({n})")


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


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file at `path` less a leading byte-order mark,
    which some editors write; a non-UTF-8 byte fails naming the file."""
    try:
        # not "utf-8-sig", which would count a bad byte's position from after the mark
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_csv(path: str | Path, header, rows) -> None:
    """Write `header`, then each of `rows`, as lines of the CSV at `path`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
