"""Value types for overflow-safe complex results in log-polar form.

A nonzero complex number is stored as ``(logmod, arg)`` where ``logmod`` is
the natural log of its modulus and ``arg`` its argument in ``(-pi, pi]``.
This survives magnitudes like ``exp(1e16)`` that no binary float can hold in
cartesian form.  An angle is reduced by the kernels' `_reduce_dd` only below
`_kernels.ANGLE_MAX` = 2**53; past it the computed angle carries no
information, and ``arg`` is None: unknown.  Exact zeros are a separate tag
(`ZERO`), not ``logmod=-inf``: the product function has exact zeros that must
propagate exactly (they make the iteration map act as ``z -> z + 1``).  The
arithmetic that produces these values lives in `_kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._kernels import ANGLE_MAX, _reduce_dd, _split, _split_prod

__all__ = [
    "LogComplex",
    "Zero",
    "ZERO",
    "lc_pow_int",
    "reduce_angle",
]


def reduce_angle(x: float) -> float:
    """Reduce an angle with ``|x| < ANGLE_MAX`` (2**53) into (-pi, pi].

    Uses the kernels' double-double reduction, within 5e-16 of the exact
    residue of the given double.  Raises ValueError at and beyond the bound,
    where the ulp of x is 2 or more, and on non-finite input.
    """
    if not abs(x) < ANGLE_MAX:
        raise ValueError(f"angle {x!r} is not below 2**53 in magnitude")
    return _reduce_dd(x, 0.0)


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
    """A nonzero complex value ``exp(logmod) * exp(i*arg)``; an arg of None
    is an unknown angle."""

    logmod: float
    arg: Optional[float]

    def __post_init__(self) -> None:
        if self.arg is not None:
            object.__setattr__(self, "arg", reduce_angle(self.arg))


def lc_pow_int(v: Zero | LogComplex, n: int) -> Zero | LogComplex:
    """Raise to a nonnegative integer power below 2**53, `ParamSeq`'s bound
    on degrees.

    ``n*arg`` is a compensated product reduced mod 2*pi by
    `_kernels._reduce_dd`, as `_kernels._h_point` does for each factor, so
    the reduced angle is faithful to the stored double argument even for
    n ~ 1e9 (plain double multiplication would lose every angular digit
    there).  An unknown angle stays unknown.
    """
    if not isinstance(n, int) or n < 0 or n >= 1 << 53:
        raise ValueError(
            f"exponent must be a nonnegative integer below 2**53, got {n!r}")
    if n == 0:
        return LogComplex(0.0, 0.0)
    if isinstance(v, Zero):
        return ZERO
    if n == 1 or v.arg is None:
        return LogComplex(v.logmod * n, v.arg)
    hi, lo = _split_prod(float(n), v.arg, *_split(v.arg))
    return LogComplex(v.logmod * n, _reduce_dd(hi, lo))
