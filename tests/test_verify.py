"""Ring-estimate verifiers and the contraction-obstruction chain."""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from bakerlab import _kernels
from bakerlab.params import ParamSeq, derive, make_toy
from bakerlab.verify import (
    asymptotic_deviation,
    obstruction_chain,
    ring_field,
    split_sector,
    verify_2a,
    verify_2b,
    verify_2c,
)

from _oracles import h_ref

DOUBLING = make_toy("doubling")
STEEP = make_toy("steep")
PAPER2 = make_toy("paper2")


class TestGrowthBound:
    def test_all_rings_pass_for_doubling(self):
        for k in (2, 3, 4):
            rep = verify_2a(DOUBLING, k, 4096)
            assert rep.passed
            assert rep.margin > 0.0
            assert rep.bound_log == pytest.approx(
                math.log(4.0) + derive(DOUBLING).m[k - 1]
                * math.log(DOUBLING.r[k - 1]), abs=1e-12)

    def test_k3_maximum_frozen(self):
        rep = verify_2a(DOUBLING, 3, 4096)
        assert math.exp(rep.max_log_abs_h) == pytest.approx(
            578.008819580078125, rel=1e-12)

    def test_closed_form_equals_sampled_maximum(self, monkeypatch):
        # sample 0 of a 4096-point ring is z = r_k, where the maximum
        # is attained; verify_2a must reach it without sampling
        sampled = {}
        for p in (DOUBLING, STEEP, PAPER2):
            for k in range(2, p.K + 1):
                _, lm, _ = ring_field(p.r[k - 1], 4096, p)
                sampled[p, k] = float(np.max(lm))

        def no_sampling(*args):
            raise AssertionError("verify_2a evaluated h_field")

        monkeypatch.setattr(_kernels, "h_field", no_sampling)
        for (p, k), want in sampled.items():
            rep = verify_2a(p, k, 4096)
            assert rep.max_log_abs_h == pytest.approx(want, abs=1e-14)
            assert 0.0 < rep.tail < 1.0
            assert rep.passed

    def test_ring_field_shape_and_live_check(self):
        ang, lm, ag = ring_field(8.0, 64, DOUBLING)
        assert len(ang) == len(lm) == len(ag) == 64
        z = 8.0 * cmath.exp(1j * float(ang[5]))
        ref = h_ref(z, DOUBLING.r, DOUBLING.n)
        assert lm[5] == pytest.approx(float(mp.log(abs(ref))), abs=1e-12)

    def test_rejects_first_ring_and_sparse_radii(self):
        with pytest.raises(ValueError):
            verify_2a(DOUBLING, 1, 64)
        squeezed = ParamSeq(r=(2.0, 3.5), n=(2, 4))
        with pytest.raises(ValueError):
            verify_2a(squeezed, 2, 64)


class TestAsymptoticModel:
    def test_deviation_shrinks_up_the_ladder(self):
        errs = [verify_2b(STEEP, k, 8192).max_rel_err for k in (2, 3, 4)]
        assert errs[0] > errs[1] > errs[2]

    def test_k4_frozen_value(self):
        rep = verify_2b(STEEP, 4, 8192)
        assert rep.max_rel_err == pytest.approx(0.035166237951232866,
                                                rel=1e-9)

    def test_per_angle_rows(self):
        t, rel = asymptotic_deviation(STEEP, 4, 256)
        assert len(t) == len(rel) == 256
        assert np.all(rel >= 0.0)
        assert float(np.max(rel)) <= 0.04


class TestProbeRatios:
    def test_doubling_first_sector_frozen_and_live(self):
        rows = verify_2c(DOUBLING, 2)
        row = next(r for r in rows if r.nu == 0)
        assert row.ratio == pytest.approx(4.0849780043325320, rel=1e-12)
        # live 200-bit recompute at the same probe point b = s_2 = 5
        ref = h_ref(5.0, DOUBLING.r, DOUBLING.n)
        assert row.ratio == pytest.approx(
            float(ref.real / mp.exp(derive(DOUBLING).logT[1])), rel=1e-12)

    def test_steep_top_ring_exceeds_one(self):
        rows = verify_2c(STEEP, 4)
        assert len(rows) == 512
        assert min(r.ratio for r in rows) == pytest.approx(
            1.516459794854466, rel=1e-9)

    def test_subsampling_large_degree(self):
        rows = verify_2c(PAPER2, 2, max_probes=40)
        assert 0 < len(rows) <= 40
        nus = [r.nu for r in rows]
        assert nus == sorted(nus)
        assert nus[0] == 0 and nus[-1] == PAPER2.n[1] - 1
        assert all(np.isfinite(r.ratio) for r in rows)


class TestSplitSector:
    def test_small_case(self):
        nu, delta = split_sector(4, 0.3)
        assert nu == 1
        assert delta == pytest.approx(0.2, abs=1e-15)

    def test_huge_degree_keeps_fractional_part(self):
        n = PAPER2.n[1]
        nu, delta = split_sector(n, 0.1)
        assert nu == 284_400_000
        # the compensated product must match exact arithmetic on the
        # double 0.1, not the decimal 0.1
        ctx = mp.mp.clone()
        ctx.prec = 120
        exact = ctx.mpf(0.1) * n - nu
        assert delta == pytest.approx(float(exact), rel=1e-12)
        assert 0.0 <= delta < 1.0

    def test_integer_angle_hits_sector_start(self):
        nu, delta = split_sector(8, 0.25)
        assert (nu, delta) == (2, 0.0)

    @pytest.mark.parametrize("n", [2, PAPER2.n[1], 2 ** 53 - 1])
    def test_angle_below_one_stays_in_last_sector(self, n):
        nu, delta = split_sector(n, 1.0 - 2.0 ** -53)
        assert nu == n - 1
        assert 0.0 <= delta < 1.0

    @pytest.mark.parametrize("n, t", [
        (2 ** 30 + 1, (2 ** 30 - 1) / 2 ** 60),
        (6004799503160661, 3 / 2 ** 54),
    ])
    def test_remainder_rounding_to_one_starts_next_sector(self, n, t):
        # the exact remainder is within 2^-54 of 1, so rem/den rounds to 1.0
        exact = Fraction(t) * n
        assert math.floor(exact) == 0 and float(exact) == 1.0
        assert split_sector(n, t) == (1, 0.0)

    def test_matches_exact_rational_product(self):
        # nu is floor(n t) and delta its remainder correctly rounded, bitwise
        degrees = sorted({n for p in (DOUBLING, STEEP, PAPER2) for n in p.n})
        rng = np.random.default_rng(16)
        ts = rng.random(400) * 2.0 ** -rng.integers(0, 40, 400)
        for n in degrees:
            for t in ts.tolist():
                exact = Fraction(t) * n
                nu, delta = split_sector(n, t)
                assert nu == math.floor(exact)
                assert delta.hex() == float(exact - nu).hex()


class TestObstructionChain:
    def test_true_profile_report_frozen(self):
        rep = obstruction_chain(PAPER2, 2, 0.1, c=5.0 + 0j, K_bound=5.0)
        assert rep.nu == 284_400_000
        assert rep.dist_a == pytest.approx(4.4185549288253345e-09, rel=1e-9)
        assert rep.dist_b == pytest.approx(7.775119669748204e-09, rel=1e-9)
        assert rep.radius_10 == pytest.approx(40.0 / PAPER2.n[1], rel=1e-15)
        assert rep.dist_a <= rep.radius_10
        assert rep.dist_b <= rep.radius_10
        assert rep.log_f_a == pytest.approx(1.577907006691527, rel=1e-9)
        assert math.exp(rep.log_f_a) <= PAPER2.r[1] + 1.0
        assert rep.pinch_lower == pytest.approx(0.5 * math.log(3.0),
                                                abs=1e-14)
        assert rep.rho_lower_3d == pytest.approx(0.5 * math.log(1.1),
                                                 abs=1e-14)
        flags = rep.link_flags
        assert flags["in_disk_a"] and flags["in_disk_b"]
        assert flags["rho_3b"] and flags["f_a_bounded"]
        assert flags["f_b_large"] and flags["bound_3d_defined"]
        # the pinch alone does not beat K_bound = 5: reported honestly
        assert not flags["pinch_exceeds_K"]

    def test_doubling_third_ring_geometry(self):
        rep = obstruction_chain(DOUBLING, 3, 0.0, c=5.0 + 0j, K_bound=1.0)
        assert rep.a_k == pytest.approx(8 * cmath.exp(1j * math.pi / 8),
                                        abs=1e-12)
        assert rep.b_k == pytest.approx(9.0, abs=1e-10)
        assert rep.pinch_lower == pytest.approx(0.5 * math.log(7.0),
                                                abs=1e-14)

    def test_steep_top_ring_completes_every_link(self):
        rep = obstruction_chain(STEEP, 4, 0.37, c=5.0 + 0j, K_bound=0.5)
        flags = rep.link_flags
        assert flags["bound_3c"]
        assert flags["f_b_large"]
        assert flags["pinch_exceeds_K"]

    def test_3d_term_absent_when_disk_too_small(self):
        # r^2 <= |c| leaves the omitted-point disk empty: no 3d lower bound
        rep = obstruction_chain(DOUBLING, 2, 0.1, c=17.0 + 0j, K_bound=1.0)
        assert rep.rho_lower_3d is None
        assert not rep.link_flags["bound_3d_defined"]

    def test_ring_index_validated(self):
        with pytest.raises(ValueError):
            obstruction_chain(PAPER2, 1, 0.1, c=5.0, K_bound=5.0)
        with pytest.raises(ValueError):
            obstruction_chain(PAPER2, 3, 0.1, c=5.0, K_bound=5.0)
