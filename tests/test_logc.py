"""Log-polar values: exact tags, angle reduction, and the regime switches of
the 1 + w step in the arithmetic core."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from bakerlab import _kernels
from bakerlab._kernels import wrap_angle
from bakerlab.hfun import eval_f, eval_h
from bakerlab.logc import LogComplex, ZERO, Zero, lc_pow_int, reduce_angle
from bakerlab.params import ParamSeq, make_toy

from _oracles import reduce_angle_ref


def _one_plus(z, r=1.0):
    """1 + z/r through the core, as the one-factor product with n = 1.

    With n = 1 the factor w = z/r reaches the 1 + w step with the argument
    of z unchanged, so this drives that step directly.
    """
    is0, lm, ag = _kernels._h_point(z.real, z.imag,
                                    _kernels.prepared(ParamSeq((r,), (1,))))
    return ZERO if is0 else LogComplex(lm, ag)


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
    0.0, 1.0, -7.25, 6.4, 1e3, -1e6, 1e12, 12345678901234.5,
    2.0 ** 53 - 1.0, -(2.0 ** 53 - 1.0),
])
def test_reduce_angle_matches_high_precision(x):
    got = reduce_angle(x)
    ref = reduce_angle_ref(x)
    assert -math.pi < got <= math.pi
    # double-double reduction: within one rounding of the 200-bit route
    assert got == pytest.approx(ref, abs=5e-16)


def test_reduce_angle_sweep_below_bound():
    # log-uniform |x| over 2^-4 .. 2^53, both signs
    rng = np.random.default_rng(9)
    xs = (np.exp2(rng.uniform(-4.0, 53.0, 1000))
          * rng.choice([-1.0, 1.0], 1000))
    for x in xs[np.abs(xs) < 2.0 ** 53].tolist():
        got = reduce_angle(x)
        assert -math.pi < got <= math.pi
        assert got == pytest.approx(reduce_angle_ref(x), abs=5e-16), x


@pytest.mark.parametrize("x", [
    2.0 ** 53, -2.0 ** 53, -9.87e15, 1e70, 1e100, 1e300, -1.7e308,
    math.inf, -math.inf, math.nan,
])
def test_reduce_angle_rejects_unknown_angles(x):
    # from 2^53 on a double's ulp is 2 or more: its angle carries nothing
    with pytest.raises(ValueError):
        reduce_angle(x)


def test_producers_hand_logcomplex_a_reduced_angle():
    # LogComplex only checks its angle; each producer reduces its own
    p = make_toy("doubling")
    z = 1e30 * cmath.exp(2.5j)
    h = eval_h(z, p).value
    assert isinstance(h, LogComplex)
    assert h.arg == _kernels._h_point(z.real, z.imag, _kernels.prepared(p))[2]
    assert -math.pi < h.arg <= math.pi
    # a cartesian h with Re h > 700 and Im h = -1.4e13
    im_h = eval_h(9 + 25j, p).value.imag
    assert abs(im_h) > 1e13
    assert eval_f(9 + 25j, p).value.arg == _kernels._reduce_dd(im_h, 0.0)
    assert lc_pow_int(LogComplex(0.0, 3.0), 5).arg == _kernels._reduce_dd(
        15.0, 0.0)
    # an unknown angle stays unknown, here and through a power
    assert LogComplex(1.0, None).arg is None
    assert lc_pow_int(LogComplex(1.0, None), 3) == LogComplex(3.0, None)


@pytest.mark.parametrize("arg", [100.0, math.nan, -math.pi, math.inf])
def test_logcomplex_rejects_an_unreduced_angle(arg):
    with pytest.raises(ValueError, match="not in"):
        LogComplex(1.0, arg)
    assert LogComplex(1.0, math.pi).arg == math.pi


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
    # the compensated product must stay at a few ulps of the true residue
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
        lc_pow_int(v, 1 << 53)
    with pytest.raises(ValueError):
        lc_pow_int(v, 1 << 63)
    with pytest.raises(ValueError):
        lc_pow_int(v, 2.0)
