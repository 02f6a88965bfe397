"""Log-polar values: exact tags, angle reduction, and the regime switches of
the 1 + w step in the arithmetic core."""

import math
from fractions import Fraction

import pytest

from bakerlab import _kernels
from bakerlab.logc import (
    LogComplex,
    ZERO,
    Zero,
    lc_pow_int,
    reduce_angle,
    wrap_angle,
)
from bakerlab.params import ParamSeq

from _oracles import reduce_angle_ref


def _one_plus(z, r=1.0):
    """1 + z/r through the core, as the one-factor product with n = 1.

    With n = 1 the factor w = z/r reaches the 1 + w step with the argument
    of z unchanged, so this drives that step directly.
    """
    is0, lm, ag = _kernels._h_point(z.real, z.imag,
                                    *_kernels.prepared(ParamSeq((r,), (1,))))
    return ZERO if is0 else LogComplex(float(lm), float(ag))


def test_wrap_angle_half_open_interval():
    # wrap_angle handles one excursion past the cut (sums of two reduced
    # angles); full-range reduction is reduce_angle's job
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(1.75 * math.pi) == pytest.approx(-0.25 * math.pi,
                                                       abs=1e-12)
    assert -math.pi < wrap_angle(-1.99 * math.pi) <= math.pi


@pytest.mark.parametrize("x", [
    0.0, 1.0, -7.25, 6.4, 1e3, -1e6, 1e12, 12345678901234.5, -9.87e15,
])
def test_reduce_angle_matches_high_precision(x):
    got = reduce_angle(x)
    ref = reduce_angle_ref(x)
    assert -math.pi < got <= math.pi
    # exact rational reduction: at most one rounding against the 200-bit route
    assert got == pytest.approx(ref, abs=5e-16)


def test_logcomplex_normalizes_angle_on_construction():
    v = LogComplex(1.0, 100.0)
    assert -math.pi < v.arg <= math.pi
    assert v.arg == reduce_angle(100.0)


def test_zero_tag_roundtrip_and_absorption():
    # the core hands an exact zero back as the tag, never as logmod=-inf
    assert _one_plus(complex(-2.0, 0.0), r=2.0) == ZERO
    assert ZERO == Zero() and hash(ZERO) == hash(Zero())
    assert ZERO != LogComplex(0.0, 0.0)
    assert isinstance(lc_pow_int(ZERO, 5), Zero)
    assert lc_pow_int(ZERO, 0) == LogComplex(0.0, 0.0)


@pytest.mark.parametrize("z", [
    0.5 + 0.25j, -0.999 + 1e-3j, 3 - 4j, -1.0 + 0.1j, 1e-8 + 1e-8j,
])
def test_add_one_central_regime_matches_complex(z):
    w = _one_plus(z)
    expect = 1 + z
    # near-cancellation (z close to -1) legitimately amplifies the stored
    # rounding of v by |z| / |1+z|
    amp = max(1.0, abs(z) / abs(expect))
    assert w.logmod == pytest.approx(math.log(abs(expect)), abs=1e-15 * amp)
    assert w.arg == pytest.approx(math.atan2(expect.imag, expect.real),
                                  abs=1e-15 * amp)


def test_add_one_tiny_regime_log1p_accuracy():
    # |v| = e^-80: naive cartesian 1+v would round the log to 0
    t = math.exp(-80.0)
    w = _one_plus(complex(t * math.cos(1.0), t * math.sin(1.0)))
    assert w.logmod == pytest.approx(t * math.cos(1.0), rel=1e-12)
    assert w.arg == pytest.approx(t * math.sin(1.0), rel=1e-12)


def test_add_one_huge_regime_keeps_relative_structure():
    # |w| = |z|/r ~ e^900 overflows as a double; only z and r are stored
    r = 2.0 ** -1000
    mod = math.exp(900.0 + math.log(r))
    z = complex(mod * math.cos(2.0), mod * math.sin(2.0))
    w = _one_plus(z, r)
    wlm = math.log(abs(z)) - math.log(r)
    wag = math.atan2(z.imag, z.real)
    assert wlm == pytest.approx(900.0, abs=1e-12)
    u = math.exp(-wlm)
    assert w.logmod == pytest.approx(wlm + u * math.cos(wag), abs=1e-15)
    assert w.arg == pytest.approx(wag - u * math.sin(wag), abs=1e-15)


def test_add_one_exact_minus_one_gives_zero():
    assert isinstance(_one_plus(complex(-1.0, 0.0)), Zero)


def test_pow_int_small_cases():
    v = LogComplex(0.5 * math.log(2.0), math.atan2(1.0, 1.0))
    assert lc_pow_int(v, 0) == LogComplex(0.0, 0.0)
    assert lc_pow_int(v, 1) == v
    sq = lc_pow_int(v, 2)
    assert sq.logmod == pytest.approx(math.log(2.0), abs=1e-15)
    assert sq.arg == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_pow_int_huge_exponent_angle_is_exact():
    # n ~ 3e9: double multiplication n*arg would carry ~1e-7 absolute error;
    # the exact rational route must stay at a few ulps of the true residue
    import mpmath as mp

    n = 2_844_000_000
    v = LogComplex(0.0, 0.7853981633974483)
    w = lc_pow_int(v, n)
    va = Fraction(v.arg) * n
    ctx = mp.mp.clone()
    ctx.prec = 250
    exact = ctx.fmod(ctx.mpf(va.numerator) / va.denominator, 2 * ctx.pi)
    if exact > ctx.pi:
        exact -= 2 * ctx.pi
    assert w.arg == pytest.approx(float(exact), abs=2e-15)


def test_pow_int_rejects_bad_exponents():
    v = LogComplex(0.0, 0.5)
    with pytest.raises(ValueError):
        lc_pow_int(v, -1)
    with pytest.raises(ValueError):
        lc_pow_int(v, 1 << 63)
    with pytest.raises(ValueError):
        lc_pow_int(v, 2.0)
