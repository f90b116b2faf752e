"""Exact arithmetic primitives.

Everything here is built on Python's fractions.Fraction, the exact value
type used throughout the package.  The module provides rational coercion,
rising factorials, Horner evaluation of polynomials, and the argument
rules more than one layer applies (the Dyson-like parameter alpha,
orders of moments and truncations).  A rising factorial is one integer
product over one power of the denominator, reduced once.  Record is the
small frozen record base of the package's result and parameter classes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union

from .errors import DomainError

RationalLike = Union[Fraction, int, str]


def as_rational(x: RationalLike) -> Fraction:
    """Coerce ints, "p/q" / decimal strings and Fractions to Fraction;
    bool is refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"not an exact rational: {x!r}")


def is_half_integer(x: Fraction) -> bool:
    """True when 2x is an integer (integers included)."""
    return (2 * x).denominator == 1


def check_alpha(alpha: RationalLike) -> Fraction:
    """The Dyson-like parameter alpha as a Fraction: a half-integer >= 1/2."""
    alpha = as_rational(alpha)
    if not is_half_integer(alpha) or alpha < Fraction(1, 2):
        raise DomainError(f"alpha must be a half-integer >= 1/2, got {alpha}")
    return alpha


def is_order(n: object) -> bool:
    """True for an int n >= 0, the shape of every moment or truncation
    order and of the Gegenbauer weight exponent; bool is refused."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def horner(coeffs, x):
    """The polynomial with ascending coefficients coeffs at x."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def pochhammer(a: RationalLike, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    if not is_order(n):
        raise DomainError(f"pochhammer needs an integer n >= 0, got {n!r}")
    a = as_rational(a)
    # with a = p/q: (a)_n = p (p+q) ... (p+(n-1)q) / q^n
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(range(p, p + n * q, q)), q ** n)


class Record:
    """An immutable record whose fields are its class annotations.

    A subclass lists its fields as annotations, in order, with an optional
    class-level default each.  It gets an __init__ that takes the fields by
    position or keyword, stores them and then runs the subclass's
    __post_init__, if it has one.  Instances compare and hash field by
    field and print as Name(field=value, ...), leaving out the fields
    named in the class keyword hide.  Assignment and deletion raise
    AttributeError; __post_init__ may normalize a field with
    object.__setattr__.
    """

    def __init_subclass__(cls, hide: tuple = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = operator.attrgetter(*cls._fields)
        cls._shown = tuple(f for f in cls._fields if f not in hide)
        defaults = {f: cls.__dict__[f] for f in cls._fields
                    if f in cls.__dict__}
        # one plain store per field, so that building a record costs no
        # more than a dataclass's generated __init__
        params = ", ".join(f"{f}=defaults[{f!r}]" if f in defaults else f
                           for f in cls._fields)
        lines = [f"def __init__(self, {params}):", "    d = self.__dict__"]
        lines += [f"    d[{f!r}] = {f}" for f in cls._fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {"defaults": defaults}
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
