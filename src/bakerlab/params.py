"""Parameter sequences for the infinite product and their derived quantities.

A `ParamSeq` holds the stored prefix of the two defining sequences: the radii
``r_k`` (strictly increasing) and the factor degrees ``n_k``
(``k <= n_k < 2**53``).
`derive` produces the cumulative degrees ``m_k``, the probe radii
``s_k = (1 + 1/n_k) r_k``, and the leading scale ``T_k`` on ``|z| = s_k``,
stored in log form because it overflows doubles for steep profiles.

`validate_1b` checks the growth condition the construction needs:
``r_k >= 2 r_{k-1} >= 4`` and ``n_k >= 20 r_k^2 exp(4 r_k^{m_k})`` for k >= 2.
Beyond tiny prefixes the right-hand side is astronomically infeasible, which
is why the built-in profiles are desk-scale stand-ins.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ParamSeq",
    "DerivedParams",
    "ClauseCheck",
    "ValidityReport",
    "validate_1b",
    "derive",
    "require_ring_index",
    "make_toy",
    "load_params",
    "params_to_json",
    "params_digest",
    "PROFILES",
]


@dataclass(frozen=True)
class ParamSeq:
    """Stored prefix (length K) of the radius and degree sequences."""

    r: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.r) != len(self.n) or len(self.r) < 1:
            raise ValueError("r and n must have equal positive length")
        if any(not math.isfinite(x) or x <= 0 for x in self.r):
            raise ValueError("radii must be finite and positive")
        if any(b <= a for a, b in zip(self.r, self.r[1:])):
            raise ValueError("radii must be strictly increasing")
        for k, nk in enumerate(self.n, start=1):
            if not isinstance(nk, int) or isinstance(nk, bool) or nk < k:
                raise ValueError(f"degree n_{k}={nk!r} is not an integer >= {k}")
            if nk >= 1 << 53:
                # the compensated n*arg product is exact only below 2**53
                raise ValueError(f"degree n_{k}={nk} is not below 2**53")
        if any(not math.isfinite(rk * (1.0 + 1.0 / nk))
               for rk, nk in zip(self.r, self.n)):
            raise ValueError("probe radii r_k (1 + 1/n_k) must be finite")

    @property
    def K(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class DerivedParams:
    """Cumulative degrees m_k, probe radii s_k and log of the leading scale T_k.

    ``m_1 = 0`` by convention (empty sum), making empty products uniform.
    """

    m: tuple[int, ...]
    s: tuple[float, ...]
    logT: tuple[float, ...]


@dataclass(frozen=True)
class ClauseCheck:
    """One clause of the validity condition at index k.

    ``lhs``/``rhs`` are the two sides of the inequality, in log form for the
    degree clause (``lhs = ln n_k``).  ``unrepresentable`` marks degree
    clauses whose right-hand side exceeds every 63-bit integer; they are
    reported as failed.
    """

    k: int
    name: str  # "base-radius" | "radius" | "degree"
    ok: bool
    lhs: float
    rhs: float
    unrepresentable: bool = False


@dataclass(frozen=True)
class ValidityReport:
    clauses: tuple[ClauseCheck, ...]
    overall: bool


@functools.lru_cache(maxsize=64)
def derive(p: ParamSeq) -> DerivedParams:
    """Compute m_k, s_k and ln T_k for every stored index."""
    m = [0]
    for nk in p.n[:-1]:
        m.append(m[-1] + nk)
    s = tuple(rk * (1.0 + 1.0 / nk) for rk, nk in zip(p.r, p.n))
    logT = tuple(
        math.fsum(p.n[j] * (math.log(s[k]) - math.log(p.r[j])) for j in range(k))
        for k in range(p.K)
    )
    return DerivedParams(m=tuple(m), s=s, logT=logT)


def require_ring_index(p: ParamSeq, k: int) -> None:
    """Reject a ring index outside 2 <= k <= K, where `derive`'s m_k is a
    sum over the rings below k."""
    if not 2 <= k <= p.K:
        raise ValueError(f"k must be in [2, {p.K}] (ring index with m_k defined)")


# Inner exponents m_k*ln(r_k) above this make 4*r_k^{m_k} overflow a double;
# no 63-bit degree can satisfy the clause there anyway.
DEGREE_EXPONENT_CAP = 700.0


def validate_1b(p: ParamSeq) -> ValidityReport:
    """Check the growth condition clause by clause.

    Failures are report content, not errors.  The degree clause is evaluated
    in log form: ``ln n_k >= ln 20 + 2 ln r_k + 4 exp(m_k ln r_k)``.
    """
    d = derive(p)
    clauses = [
        ClauseCheck(k=1, name="base-radius", ok=p.r[0] >= 2.0, lhs=p.r[0], rhs=2.0)
    ]
    for k in range(2, p.K + 1):
        rk, rkm1 = p.r[k - 1], p.r[k - 2]
        clauses.append(
            ClauseCheck(k=k, name="radius", ok=rk >= 2.0 * rkm1, lhs=rk, rhs=2.0 * rkm1)
        )
        inner = d.m[k - 1] * math.log(rk)
        lhs = math.log(p.n[k - 1])
        if inner > DEGREE_EXPONENT_CAP:
            clauses.append(
                ClauseCheck(
                    k=k, name="degree", ok=False, lhs=lhs, rhs=math.inf,
                    unrepresentable=True,
                )
            )
            continue
        rhs = math.log(20.0) + 2.0 * math.log(rk) + 4.0 * math.exp(inner)
        clauses.append(ClauseCheck(k=k, name="degree", ok=lhs >= rhs, lhs=lhs, rhs=rhs))
    return ValidityReport(
        clauses=tuple(clauses), overall=all(c.ok for c in clauses)
    )


# Desk-scale stand-in profiles.  "paper2" is the K=2 prefix that genuinely
# satisfies the growth condition: the degree clause needs
# n_2 >= 320*e^16 = 2_843_555_366.56..., hence 2_844_000_000.
PROFILES: dict[str, tuple[tuple[float, ...], tuple[int, ...]]] = {
    "doubling": ((2.0, 4.0, 8.0, 16.0), (2, 4, 8, 16)),
    "steep": ((2.0, 4.0, 8.0, 16.0), (2, 8, 64, 512)),
    "paper2": ((2.0, 4.0), (1, 2_844_000_000)),
}


def make_toy(profile: str) -> ParamSeq:
    """Return one of the built-in profiles by name."""
    try:
        r, n = PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        ) from None
    return ParamSeq(r=r, n=n)


def load_params(path: str | Path) -> ParamSeq:
    """Load ``{"r": [...], "n": [...]}`` from a JSON file (n as exact integers).

    r and n must be JSON arrays: a string would be read one character at a
    time.  Each radius must be a JSON number; a string or a boolean is
    rejected, as it is for a degree.
    """
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    try:
        r, n = data["r"], data["n"]
        if not (isinstance(r, list) and isinstance(n, list)):
            raise TypeError("r and n must be arrays")
        for k, x in enumerate(r, start=1):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise TypeError(f"radius r_{k}={x!r} is not a number")
        r = tuple(float(x) for x in r)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed parameter file {path}: {exc}") from exc
    return ParamSeq(r=r, n=tuple(n))


def params_to_json(p: ParamSeq) -> str:
    """Canonical JSON form, stable across runs (used for file output and hashing)."""
    return json.dumps({"n": list(p.n), "r": list(p.r)}, sort_keys=True,
                      separators=(",", ":"))


def params_digest(p: ParamSeq) -> bytes:
    """32-byte SHA-256 of the canonical JSON; stamped into grid files."""
    return hashlib.sha256(params_to_json(p).encode("ascii")).digest()
