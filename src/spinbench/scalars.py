"""Exact half-integer spins and checked angles: the scalar layer, which imports no numpy.

The closed forms and the command line need only these and `math`, so a process
that evaluates closed forms or certifies data never loads the array layer.  A
numpy scalar is recognised by numpy's own types, looked up in `sys.modules`
when needed: no numpy scalar exists before numpy is imported.
`spin_algebra` re-exports the names the other modules import from here.
"""

from __future__ import annotations

import math
import sys

# every spin meets a float, and 2**53 is the largest doubled spin it holds exactly
MAX_DOUBLED_SPIN = 2 ** 53


class ToleranceError(Exception):
    """A computed value breached an internal consistency bound."""


def _is_numpy(x, name):
    """Whether x is an instance of numpy's type `name`: never while numpy is not imported."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, getattr(np, name))


class HalfInteger:
    """An exact half-integer, stored as twice its value.

    HalfInteger(3) is 3/2; HalfInteger.from_value(1.5) is the same thing.
    """

    __slots__ = ("doubled",)

    def __init__(self, doubled):
        if isinstance(doubled, bool) or not (isinstance(doubled, int) or _is_numpy(doubled, "integer")):
            raise TypeError("doubled must be an integer, got %r" % (doubled,))
        if abs(doubled) > MAX_DOUBLED_SPIN:
            raise ValueError("doubled spin exceeds 2**53, the largest a float holds exactly")
        self.doubled = int(doubled)

    @classmethod
    def from_value(cls, value):
        if isinstance(value, bool) or _is_numpy(value, "bool_"):
            raise ValueError("%r is not a half-integer" % (value,))
        doubled = 2 * value
        if not -math.inf < doubled < math.inf or doubled != round(doubled):
            raise ValueError("%r is not a half-integer" % (value,))
        return cls(int(round(doubled)))

    @property
    def value(self):
        return self.doubled / 2

    @property
    def is_integer(self):
        return self.doubled % 2 == 0

    def __float__(self):
        return self.doubled / 2

    def __eq__(self, other):
        if isinstance(other, HalfInteger):
            return self.doubled == other.doubled
        return self.value == other

    def __lt__(self, other):
        return self.value < _as_number(other)

    def __le__(self, other):
        return self.value <= _as_number(other)

    def __gt__(self, other):
        return self.value > _as_number(other)

    def __ge__(self, other):
        return self.value >= _as_number(other)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        if self.doubled % 2 == 0:
            return "HalfInteger(%d)" % (self.doubled // 2)
        return "HalfInteger(%d/2)" % self.doubled

    def __str__(self):
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return "%d/2" % self.doubled


def _as_number(x):
    return x.value if isinstance(x, HalfInteger) else x


def as_half_integer(x) -> HalfInteger:
    """Coerce an int, exact half-integral float, or HalfInteger to HalfInteger."""
    if isinstance(x, HalfInteger):
        return x
    return HalfInteger.from_value(x)


def as_spin(x, what) -> HalfInteger:
    """`as_half_integer`, refused below 1/2 by a ValueError naming the spin `what`."""
    s = as_half_integer(x)
    if s.doubled < 1:
        raise ValueError("%s must be >= 1/2, got %s" % (what, s))
    return s


def _is_complex(x):
    """Whether x is a complex number: numpy orders one by its real part first, as if it were real."""
    return isinstance(x, complex) or _is_numpy(x, "complexfloating")


def as_angle(x, what="theta"):
    """x, refused unless a finite real number (NaN too) by a ValueError naming the angle `what`."""
    try:
        if type(x) is not float and _is_complex(x):  # it would pass the comparison below
            raise TypeError
        finite = -math.inf < x < math.inf
    except TypeError:  # None, a string, a complex number
        raise ValueError("%s must be a real number, got %r" % (what, x)) from None
    if not finite:
        raise ValueError("%s must be finite, got %r" % (what, x))
    return x
