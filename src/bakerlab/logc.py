"""Value types for overflow-safe complex results in log-polar form.

A nonzero complex number is stored as ``(logmod, arg)`` where ``logmod`` is
the natural log of its modulus and ``arg`` its argument in ``(-pi, pi]``.
This survives magnitudes like ``exp(1e16)`` that no binary float can hold in
cartesian form.  Exact zeros are a separate tag (`ZERO`), not ``logmod=-inf``:
the product function has exact zeros that must propagate exactly (they make
the iteration map act as ``z -> z + 1``).  The arithmetic that produces these
values lives in `_kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "LogComplex",
    "Zero",
    "ZERO",
    "lc_pow_int",
    "wrap_angle",
    "reduce_angle",
]

_TWO_PI = 2.0 * math.pi
# 2*pi as a dyadic rational with 1120 fractional bits: a finite double over
# 2*pi has quotient q < 2^1022, so the error q * 2^-1121 stays below 2^-99.
_TWO_PI_FRAC = Fraction(int(
    "6487ed5110b4611a62633145c06e0e68948127044533e63a0105df531d89cd9128a5043"
    "cc71a026ef7ca8cd9e69d218d98158536f92f8a1ba7f09ab6b6a8e122f242dabb312f3f"
    "637a262174d31bf6b585ffae5b7a035bf6f71c35fdad44cfd2d74f9208be258ff324943"
    "328f6722d9ee1003e5c50b1df82cc6d241b0e2ae9cd348b1fd47e9267afc1b2ae91f",
    16), 1 << 1120)
_HALF = Fraction(1, 2)

# Largest logmod for which exp() still fits an IEEE double.
CARTESIAN_LOGMOD_MAX = math.log(1.7976931348623157e308)  # ~709.78


def wrap_angle(a: float) -> float:
    """Move an angle already within (-3pi, 3pi] into (-pi, pi]."""
    if a > math.pi:
        a -= _TWO_PI
    elif a <= -math.pi:
        a += _TWO_PI
    return a


def reduce_angle(x: float) -> float:
    """Reduce an arbitrary finite angle into (-pi, pi].

    Uses exact rational arithmetic against a 1120-bit approximation of
    2*pi, so the result is faithful to the given double up to 1.8e308.
    """
    if -math.pi < x <= math.pi:
        return x
    v = Fraction(x)
    q = math.ceil(v / _TWO_PI_FRAC - _HALF)
    r = float(v - q * _TWO_PI_FRAC)
    return wrap_angle(r)


class Zero:
    """Tag for the exact complex zero; equal only to other `Zero` instances."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Zero)

    def __hash__(self) -> int:
        return hash(Zero)

    def __repr__(self) -> str:
        return "ZERO"


ZERO = Zero()


@dataclass(frozen=True)
class LogComplex:
    """A nonzero complex value ``exp(logmod) * exp(i*arg)``."""

    logmod: float
    arg: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "arg", reduce_angle(self.arg))


def lc_pow_int(v: Zero | LogComplex, n: int) -> Zero | LogComplex:
    """Raise to a nonnegative integer power up to 63 bits.

    The argument is multiplied by ``n`` in exact rational arithmetic before
    reduction mod 2*pi, so the reduced angle is faithful to the stored double
    argument even for n ~ 1e9 (plain double multiplication would lose every
    angular digit there).
    """
    if not isinstance(n, int) or n < 0 or n >= (1 << 63):
        raise ValueError(f"exponent must be a nonnegative 63-bit integer, got {n!r}")
    if n == 0:
        return LogComplex(0.0, 0.0)
    if isinstance(v, Zero):
        return ZERO
    if n == 1:
        return v
    va = Fraction(v.arg) * n
    q = math.ceil(va / _TWO_PI_FRAC - _HALF)
    arg = wrap_angle(float(va - q * _TWO_PI_FRAC))
    return LogComplex(v.logmod * n, arg)
