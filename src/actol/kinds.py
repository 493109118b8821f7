"""The kinds of value the package takes at its boundary, each with one test and
one message: a Kind's check returns the value or raises ValueError("<name> must
be <text>, got <value>"). Integers and reals are Python's or numpy's, not bools."""

from __future__ import annotations

import numbers
from sys import float_info
from typing import Callable, NamedTuple

import numpy as np

# The most trials, samples or clips one Monte Carlo check draws, the most
# clips or seeds a CLI run makes (a check keeps a float or more per trial,
# 80 MB), and the largest count that sizes an array axis, such as T or d.
MAX_DRAWS = 10**7


class Kind(NamedTuple):
    """The text that completes "<name> must be ..." and the test of a kind."""

    text: str
    test: Callable[[object], bool]

    def check(self, name: str, value):
        if not self.test(value):
            raise ValueError(f"{name} must be {self.text}, got {value!r}")
        return value


# an exact int or float passes first: an ABC isinstance check costs about half a microsecond
INTEGER = Kind("an integer", lambda v: type(v) is int
               or isinstance(v, numbers.Integral) and not isinstance(v, bool))
NUMBER = Kind("a number", lambda v: type(v) in (float, int)
              or isinstance(v, numbers.Real) and not isinstance(v, bool))
BOOLEAN = Kind("true or false", lambda v: isinstance(v, bool))
SEED = Kind("a non-negative integer", lambda v: INTEGER.test(v) and v >= 0)
# finite: at most the largest float, so that an int such as 10**400 converts too
POSITIVE = Kind("finite and positive", lambda v: NUMBER.test(v) and 0 < v <= float_info.max)
NON_NEGATIVE = Kind("a finite non-negative number",
                    lambda v: NUMBER.test(v) and 0 <= v <= float_info.max)
FINITE = Kind("finite real numbers",
              lambda v: np.asarray(v).dtype.kind in "iuf" and np.isfinite(v).all())
SIZE_RANGE = Kind(f"two integers 2 <= lo <= hi <= {MAX_DRAWS}",
                  lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                  and all(map(INTEGER.test, v)) and 2 <= v[0] <= v[1] <= MAX_DRAWS)


def counts(minimum: int, maximum: int | None = None) -> Kind:
    """Integers of at least minimum and, given a maximum, at most it."""
    most = "" if maximum is None else f" and at most {maximum}"
    return Kind(f"an integer of at least {minimum}{most}",
                lambda v: INTEGER.test(v) and minimum <= v and (maximum is None or v <= maximum))


def count(name: str, value, minimum: int = 1, maximum: int | None = None) -> int:
    return int(counts(minimum, maximum).check(name, value))


def generator(seed) -> np.random.Generator:
    """A Generator, passed through, or default_rng of a checked seed."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(
        SEED.check("seed", seed))


class Timestamps(tuple):
    """A tuple that timestamps() returned, which it passes through unchecked."""


def timestamps(values) -> tuple:
    """Checked timestamps as a tuple of ints: at least two finite integers
    (an integral float such as 2.0 counts), non-negative, strictly increasing, below 2**63."""
    if type(values) is Timestamps:  # checked once, for every later caller
        return values
    raw = tuple(values)
    if any(isinstance(t, (bool, np.bool_)) for t in raw):
        raise ValueError("timestamps must be finite integers, not booleans")
    try:
        ts = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
        ts = None
    if ts != raw:  # a fractional value compares unequal to its truncation
        raise ValueError("timestamps must be finite integers")
    if len(ts) < 2:
        raise ValueError("need at least two timestamps")
    if any(t < 0 for t in ts):
        raise ValueError("timestamps must be non-negative")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("timestamps must be strictly increasing")
    if ts[-1] >= 2**63:  # the last is the largest: the int64 rows the losses compute on
        raise ValueError("timestamps must be less than 2**63")
    return Timestamps(ts)


def timestamp_rows(ts) -> np.ndarray:
    """Checked timestamps ts as an int64 array: one row (T,), or each row
    of an (N, T) stack, whose bad row raises the lone row's ValueError. A
    signed integer array stack whose rows are all valid passes one
    vectorized test, which compares without subtracting, so no value can
    wrap around; any other stack is checked row by row."""
    if (isinstance(ts, np.ndarray) and ts.dtype.kind == "i" and ts.ndim == 2 and ts.shape[1] >= 2
            and np.all(ts[:, 0] >= 0) and np.all(ts[:, 1:] > ts[:, :-1])):
        return ts.astype(np.int64, copy=False)
    if np.ndim(ts) == 2:  # a ragged list of rows raises ValueError here
        return np.array([timestamps(row) for row in ts], dtype=np.int64)
    return np.asarray(timestamps(ts), dtype=np.int64)
