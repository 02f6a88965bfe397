"""Scalar evaluation of the product h, the map f, probe points, and the
contour machinery for g = exp(-integral of e^{-h})."""

import cmath
import hashlib
import math

import numpy as np
import pytest

from bakerlab import hfun
from bakerlab.dynamics import iterate
from bakerlab.hfun import (
    EvalResult,
    NonConvergence,
    eval_f,
    eval_g,
    eval_h,
    integrate_exp_neg_h,
    newton_residual,
    probe_point,
    stored_zeros,
    theta,
)
from bakerlab.logc import LogComplex, Zero
from bakerlab.params import ParamSeq, derive, make_toy

from _oracles import f_ref, h_ref, integral_exp_neg_h_ref, theta_ref

DOUBLING = make_toy("doubling")
E = math.e


class TestEvalH:
    @pytest.mark.parametrize("make, args, match", [
        (EvalResult, (1j, -1.0, False), "trunc_bound must be >= 0"),
        (EvalResult, (1j, math.nan, False), "trunc_bound must be >= 0"),
        (eval_h, (complex(math.nan, 0.0), DOUBLING), "non-finite input"),
        (eval_h, (complex(0.0, -math.inf), DOUBLING), "non-finite input"),
    ], ids=["negative-bound", "nan-bound", "nan-z", "inf-z"])
    def test_invalid_values_are_rejected(self, make, args, match):
        with pytest.raises(ValueError, match=match):
            make(*args)

    def test_value_at_one_frozen_and_live(self):
        res = eval_h(1.0, DOUBLING)
        assert res.value == pytest.approx(1.2548828872968443, abs=1e-15)
        live = complex(h_ref(1.0, DOUBLING.r, DOUBLING.n))
        assert res.value == pytest.approx(live, abs=1e-15)
        assert res.regime == "exact-ish"

    def test_random_points_match_high_precision(self):
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-12, 12, (20, 2)):
            z = complex(x, y)
            got = eval_h(z, DOUBLING).value
            ref = complex(h_ref(z, DOUBLING.r, DOUBLING.n))
            assert cmath.isclose(got, ref, rel_tol=5e-13)

    def test_truncation_bound_structure(self):
        # |z| = 1 is rho = 1/16 of r_4: expm1((rho/2)^5 / (1 - rho/2^7))
        res = eval_h(1.0, DOUBLING)
        assert res.trunc_bound == pytest.approx(2.981688185634539e-08,
                                                rel=1e-14)
        assert res.unbounded_tail is False
        # finite on the whole disk |z| < 2 r_4, nothing claimed from there on
        assert math.isfinite(eval_h(31.9, DOUBLING).trunc_bound)
        far = eval_h(32.0, DOUBLING)
        assert far.unbounded_tail is True
        assert far.trunc_bound == math.inf

    @pytest.mark.parametrize("name", ["doubling", "steep", "paper2"])
    def test_tail_bound_holds_for_extremal_continuation(self, name):
        # the continuation the bound allows with the most weight,
        # r_{K+i} = 2^i r_K and n_{K+i} = K+i, for ten factors; at positive
        # real z every omitted factor is a positive real, the worst case
        p = make_toy(name)
        r = p.r + tuple(2.0 ** i * p.r[-1] for i in range(1, 11))
        n = p.n + tuple(p.K + i for i in range(1, 11))
        ratios = []
        for rho in [*np.linspace(0.05, 1.95, 39), 1.999]:
            z = float(rho) * p.r[-1]
            err = float(abs(h_ref(z, r, n) / h_ref(z, p.r, p.n) - 1))
            bound = eval_h(z, p).trunc_bound
            assert err <= bound, (rho, err, bound)
            ratios.append(err / bound)
        # the bound is within 2x of the truth, so half of it would fail
        assert max(ratios) > 0.5

    def test_truncation_bound_tightens_with_more_rings(self):
        p2 = ParamSeq(r=DOUBLING.r[:2], n=DOUBLING.n[:2])
        b2 = eval_h(0.5, p2).trunc_bound
        b4 = eval_h(0.5, DOUBLING).trunc_bound
        assert b4 < b2

    def test_exact_zero_tag(self):
        assert isinstance(eval_h(2j, DOUBLING).value, Zero)


class TestEvalF:
    def test_unit_translation_at_zero_is_bitwise(self):
        a = 2j
        res = eval_f(a, DOUBLING)
        assert res.value == a + 1.0
        assert isinstance(res.value, complex)

    def test_stored_zeros_refuses_paper2_at_once(self):
        # its 2844000001 zeros would take minutes and hundreds of GB
        with pytest.raises(ValueError, match="stored zeros"):
            stored_zeros(make_toy("paper2"))

    def test_cartesian_value_matches_high_precision(self):
        z = 1.5 + 0.25j
        got = eval_f(z, DOUBLING).value
        ref = complex(f_ref(z, DOUBLING.r, DOUBLING.n))
        assert cmath.isclose(got, ref, rel_tol=1e-13)

    def test_escaped_regime_goes_log_polar(self):
        res = eval_f(20.0, DOUBLING)
        assert isinstance(res.value, LogComplex)
        assert res.regime == "escaped"
        # Re h(20) at 200 bits
        ref = h_ref(20.0, DOUBLING.r, DOUBLING.n)
        assert res.value.logmod == pytest.approx(float(ref.real), rel=1e-13)


class TestScalarPath:
    # SHA-256 over repr((value, trunc_bound, regime, unbounded_tail)) of
    # eval_h and eval_f at _scalar_points, recorded while EvalResult still
    # stored all four; the derived regime and tail flag must not move a byte.
    # doubling and steep were re-recorded when a log-polar f with
    # |Im h| >= 2^53 got the unknown angle None (144 and 6 entries; no other
    # entry moved).  A libm that rounds differently from the recording
    # machine (x86-64) would also change them.
    DIGESTS = {
        "doubling":
            "69f039a0834e963544609d40204ad481189ca30b04603a59ee872e2560c375b0",
        "steep":
            "0c55ddf9362fe9485a669085f2ebec1885798f1ee952136d65c67722d1a4216f",
        "paper2":
            "0307df28263ad3ab24a84d3a06faf79064250587f80ea58dc7703d12f6f78f7c",
    }

    @staticmethod
    def _scalar_points(p):
        # log-uniform |z| over e^-60..e^60, the CLI examples 1,0 and 0,2, and
        # every stored zero except paper2's 2.8e9
        rng = np.random.default_rng(11)
        z = np.exp(rng.uniform(-60.0, 60.0, 1500)
                   + 1j * rng.uniform(-math.pi, math.pi, 1500))
        pts = [complex(w) for w in z] + [1.0 + 0j, 2j]
        if p.n[-1] < 10**6:
            pts += [a for _, _, a in stored_zeros(p)]
        return pts

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_results_are_pinned(self, name):
        p = make_toy(name)
        digest = hashlib.sha256()
        for z in self._scalar_points(p):
            for res in (eval_h(z, p), eval_f(z, p)):
                digest.update(repr((res.value, res.trunc_bound, res.regime,
                                    res.unbounded_tail)).encode())
        assert digest.hexdigest() == self.DIGESTS[name]

    def test_scalar_path_does_not_sum_the_stored_product(self, monkeypatch):
        # the tail bound needs only the tail term of ring_log_max
        def refuse(p, R):
            raise AssertionError("ring_log_max called")

        monkeypatch.setattr(hfun, "ring_log_max", refuse)
        assert isinstance(eval_h(2j, DOUBLING).value, Zero)
        assert eval_f(1.0, DOUBLING).trunc_bound > 0.0
        assert iterate(0.5, DOUBLING, max_steps=5).points


class TestTheta:
    def test_quarter_turn_frozen_value(self):
        assert theta(0.25) == pytest.approx(0.6900419548937861, abs=1e-14)

    def test_matches_high_precision_solver(self):
        for phi in (0.1, 0.25, 0.37, 0.5, 0.93, 1.75, -0.3,
                    1e-10, 2.0 ** -53, -2.0 ** -53, 1.0 - 1e-10):
            assert theta(phi) == pytest.approx(theta_ref(phi), abs=1e-13)

    def test_wrap_ties_give_zero(self):
        # a fractional part that rounds to 0 or to 1 resolves to exactly 0
        for phi in (0.0, 1.0, -2.0, 3.0, -1e-300, 2.0 ** -60):
            assert theta(phi) == 0.0

    def test_defining_property(self):
        rng = np.random.default_rng(17)
        for phi in rng.uniform(-3, 3, 200):
            t = theta(float(phi))
            assert 0.0 <= t < 1.0
            val = cmath.exp(2j * math.pi * phi) * (
                1.0 + E * cmath.exp(2j * math.pi * t))
            assert abs(val.imag) <= 1e-12
            assert val.real > 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            theta(math.inf)


class TestProbePoint:
    def test_first_sector_of_second_ring(self):
        pp = probe_point(2, 0, DOUBLING)
        # a sits mid-sector on the ring: 4 e^{i pi/4}
        assert pp.a == pytest.approx(4 * cmath.exp(1j * math.pi / 4),
                                     abs=1e-14)
        assert pp.b == pytest.approx(5.0, abs=1e-12)  # theta(0) = 0, s_2 = 5
        assert pp.p == pytest.approx(1.0 + E, abs=1e-12)

    def test_antipodal_sector(self):
        pp = probe_point(2, 1, DOUBLING)
        # phi = m_2 nu / n_2 = 2/4: theta lands on the far crossing
        assert pp.theta == pytest.approx(0.5, abs=1e-14)
        assert pp.p == pytest.approx(E - 1.0, abs=1e-12)
        assert pp.b == pytest.approx(5 * cmath.exp(3j * math.pi / 4),
                                     abs=1e-12)

    def test_probe_in_every_sector_is_real_positive_product(self):
        # p is the product e^{2 pi i phi}(1 + e e^{2 pi i theta}) at
        # phi = nu m_k / n_k mod 1, real and positive by the choice of theta
        sectors = [(name, k, nu) for name in ("doubling", "steep")
                   for k in (2, 3, 4)
                   for nu in range(make_toy(name).n[k - 1])]
        rng = np.random.default_rng(15)
        sectors += [("paper2", 2, int(nu)) for nu in
                    rng.integers(0, make_toy("paper2").n[1], 64)]
        for name, k, nu in sectors:
            p = make_toy(name)
            pp = probe_point(k, nu, p)
            n_k, m_k = p.n[k - 1], derive(p).m[k - 1]
            phi = (nu * m_k % n_k) / n_k
            val = cmath.exp(2j * math.pi * phi) * (
                1.0 + E * cmath.exp(2j * math.pi * pp.theta))
            assert val.real > 0.0
            assert abs(val.imag) <= 1e-12 * pp.p
            assert abs(abs(val) - pp.p) <= 1e-15 * pp.p
            assert pp.p >= E - 1.0 - 1e-12

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            probe_point(1, 0, DOUBLING)
        with pytest.raises(ValueError):
            probe_point(5, 0, DOUBLING)
        with pytest.raises(ValueError):
            probe_point(2, 4, DOUBLING)


class TestIntegration:
    def test_unit_segment_frozen_and_live(self):
        got = integrate_exp_neg_h(0.0, 1.0, DOUBLING, 1e-10)
        assert got.real == pytest.approx(0.339108917913089, abs=2e-12)
        assert abs(got.imag) <= 1e-14
        live = integral_exp_neg_h_ref(0.0, 1.0, DOUBLING.r, DOUBLING.n)
        assert abs(got - live) <= 2e-12

    def test_additivity_along_a_path(self):
        z = 0.3 + 0.8j
        whole = integrate_exp_neg_h(0.0, z, DOUBLING, 1e-12)
        parts = (integrate_exp_neg_h(0.0, 0.5 * z, DOUBLING, 1e-12)
                 + integrate_exp_neg_h(0.5 * z, z, DOUBLING, 1e-12))
        assert abs(whole - parts) <= 1e-11

    def test_degenerate_segment_is_zero(self):
        assert integrate_exp_neg_h(0.7j, 0.7j, DOUBLING) == 0j

    def test_overflowing_integrand_raises(self):
        # h = 1 + (z/2)^4 has Re h ~ -e^800 along arg z = pi/4 out at 2e200
        p = ParamSeq(r=(2.0,), n=(4,))
        far = 2e200 * cmath.exp(1j * math.pi / 4)
        with pytest.raises(NonConvergence):
            integrate_exp_neg_h(0.0, far, p, 1e-8)

    def test_tol_must_be_positive(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="tol must be positive and finite"):
                integrate_exp_neg_h(0.0, 1.0, DOUBLING, tol)

    def test_steep_segment_splits_panels(self, monkeypatch):
        panels = []
        inner = hfun._gk_panels

        def counting(batch, p):
            panels.extend(batch)
            return inner(batch, p)

        monkeypatch.setattr(hfun, "_gk_panels", counting)
        got = integrate_exp_neg_h(0.0, 3.0, DOUBLING)
        # e^{-h} falls from 1 to 0.014 on [0, 3], too fast for one panel
        assert len(panels) > 1
        live = integral_exp_neg_h_ref(0.0, 3.0, DOUBLING.r, DOUBLING.n)
        assert abs(got - live) <= 1e-13

    def test_unreachable_tol_hits_the_depth_limit(self):
        with pytest.raises(NonConvergence, match="depth limit"):
            integrate_exp_neg_h(0.0, 1.0, DOUBLING, 1e-300)

    # recorded from the recursive depth-first refinement; 13 panels each
    @pytest.mark.parametrize("z1, pinned", [
        (3.5j, "(1.3871335084406017e-15+7.043618827428562j)"),
        (3.3 + 2.1j, "(0.7396665853574618+0.016136042332339163j)"),
    ])
    def test_refined_steep_integrals_are_pinned(self, z1, pinned):
        got = integrate_exp_neg_h(0, z1, make_toy("steep"), 1e-12)
        assert repr(got) == pinned

    # the first segment in order raises, whatever the later ones do
    @pytest.mark.parametrize("name, segments, message", [
        ("steep", [(0, 2.0, 1e-300), (0, 10j, 1e-10)],
         "quadrature depth limit at u in [0.0, 4.656612873077393e-10]"),
        ("doubling", [(0, 10j, 1e-10), (0, 2.0, 1e-300)],
         "integrand overflow on u in [0.0, 1.0]"),
    ], ids=["depth-limit", "overflow"])
    def test_first_failing_segment_is_reported(self, name, segments,
                                               message):
        with pytest.raises(NonConvergence) as exc:
            hfun._integrate_segments(segments, make_toy(name))
        assert str(exc.value) == message


class TestG:
    def test_value_at_one(self):
        assert eval_g(1.0, DOUBLING) == pytest.approx(
            0.7124048512137005, abs=5e-12)

    @pytest.mark.parametrize("z", [3000.0, -3000.0, 1e6])
    def test_far_real_value_is_that_past_the_support(self, z):
        # e^{-h} underflows to 0 from |t| = 12.8 on, so g(z) is g(+-10);
        # the root panel's first node lies there once |z| >= 3000, and its
        # 15 values alone would give g = 1
        assert abs(eval_g(z, DOUBLING) - eval_g(math.copysign(10.0, z),
                                                DOUBLING)) <= 1e-9

    def test_value_at_zero_is_one_with_a_plus_zero_imaginary_part(self):
        # the quadrature path would give exp(-0j) = 1 - 0j
        g = eval_g(0.0, DOUBLING)
        assert g == 1.0 and math.copysign(1.0, g.imag) == 1.0

    @pytest.mark.parametrize("p, z, step, error, match", [
        # from z = 8 on, e^-h on the step is far below an ulp of the
        # integral, so g(z - step) and g(z + step) round equal
        (DOUBLING, 8.0, 1e-5, ZeroDivisionError, "g' vanishes"),
        # h = 1 + z/1000 and Re h(z) = 701: f(z) is log-polar, while a step
        # back to z - step = 1e4 keeps |g'| far above 1e-300
        (ParamSeq((1000.0,), (1,)), 7e5, 6.9e5, ValueError,
         "not representable in cartesian form"),
    ], ids=["g-prime-vanishes", "f-log-polar"])
    def test_residual_needs_g_prime_and_a_cartesian_f(self, p, z, step,
                                                      error, match):
        with pytest.raises(error, match=match):
            newton_residual(z, p, step=step)

    def test_residual_rejects_bad_step(self):
        for step in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="step must be positive and finite"):
                newton_residual(0.1, DOUBLING, step=step)
