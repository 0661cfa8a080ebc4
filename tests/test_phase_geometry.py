import cmath
import math

import numpy as np
import pytest

from sqnls import field, genus1, phase_geometry
from sqnls.genus1 import solve_endpoint
from sqnls.phase_geometry import (
    PinchPointError,
    big_r,
    big_s,
    first_breaking_time,
    _rho1_window,
    ray_breaking_time,
    rho1_bump_max,
    rho1_real_roots,
    rho1_slope,
    rho1_value,
    second_breaking_time,
)
from sqnls.scattering import BarrierParams

P = BarrierParams(1.0, 1.0, 0.1)


class TestRho1:
    def _setup(self, mu, t):
        st = solve_endpoint(mu, 1.0)
        xi0 = mu - st.alpha.real
        return st.alpha, xi0, t

    def test_two_roots_small_t(self):
        alpha, xi0, t = self._setup(0.9, 0.05)
        roots = rho1_real_roots(alpha, xi0, t, 1.0, 1.0)
        assert len(roots) == 2
        assert roots[0] < roots[1] < 0
        for lam in roots:
            assert abs(rho1_value(lam, alpha, xi0, t, 1.0, 1.0)) < 1e-9

    def test_no_roots_large_t(self):
        alpha, xi0, t = self._setup(0.9, 5.0)
        assert rho1_real_roots(alpha, xi0, t, 1.0, 1.0) == []

    def test_double_root_at_t2(self):
        x = 0.5
        t2 = second_breaking_time(x, P)
        mu = (P.L - x) / (2 * t2)
        st = solve_endpoint(mu, P.q)
        xi0 = mu - st.alpha.real
        roots = rho1_real_roots(st.alpha, xi0, t2, P.L, P.q)
        assert len(roots) == 2
        assert abs(roots[0] - roots[1]) < 1e-3

    def test_left_root_alone(self):
        # right=False skips the right root's solve and changes no other answer
        cases = [self._setup(0.9, 0.05), self._setup(0.9, 5.0)]
        t2 = second_breaking_time(0.5, P)
        mu = (P.L - 0.5) / (2 * t2)
        st = solve_endpoint(mu, P.q)
        cases.append((st.alpha, mu - st.alpha.real, t2))
        (simple, none, double) = [
            (rho1_real_roots(a, xi0, t, 1.0, 1.0),
             rho1_real_roots(a, xi0, t, 1.0, 1.0, right=False))
            for a, xi0, t in cases]
        assert len(simple[0]) == 2 and simple[0][0] < simple[0][1]
        assert simple[1] == simple[0][:1]
        assert none == ([], [])
        assert double[0] == double[1] == [double[0][0]] * 2

    def test_big_s_normalization(self):
        alpha = 0.5 + 0.6j
        for lam in (-8.0, -2.0, 3.0, 11.0):
            s = big_s(lam, alpha, 1.0)
            assert abs(s.imag) < 1e-14
            assert s.real > 0
        assert abs(big_s(-1e8, alpha, 1.0) - 1.0) < 1e-7

    def test_rho1_value_uses_the_real_axis_s(self):
        alpha, xi0, t, L, q = 0.5 + 0.6j, 0.4, 0.45, 1.0, 1.0
        for lam in (-9.0, -1.3, -0.2, -1e-6):
            nu = -math.hypot(lam, q)
            ref = 4 * t * abs(big_s(lam, alpha, q)) * (lam - xi0) + 4 * L * lam / nu
            assert abs(rho1_value(lam, alpha, xi0, t, L, q) - ref) <= 1e-14 * abs(ref)

    def test_big_r_matches_cmath_form(self):
        # the scalar form big_r had before it was built on specfun.cut_sqrt,
        # with its midpoint rule: nudge 1e-12 off the cut towards +i d
        alpha, q = 0.7 + 0.9j, 1.3
        c1, d1 = 0.5 * (1j * q + alpha), 0.5 * (alpha - 1j * q)

        def mid_sign(c, d):
            zz = c + 1e-12 * 1j * d / abs(d)
            return (zz - c) * cmath.sqrt(1.0 - (d / (zz - c)) ** 2) / (1j * abs(d))

        def factor(z, c, d):
            if z == c:
                return 1j * abs(d) * mid_sign(c, d)
            return (z - c) * cmath.sqrt(1.0 - (d / (z - c)) ** 2)

        z = (np.linspace(-3.1, 3.1, 24)[:, None] + 1j * np.linspace(-2.9, 2.9, 23)[None, :]).ravel()
        z = np.concatenate((z, [c1, c1.conjugate()]))
        arr = big_r(z, alpha, q)
        for zj, rj in zip(z, arr):
            zj = complex(zj)
            ref = factor(zj, c1, d1) * factor(zj, c1.conjugate(), d1.conjugate())
            assert abs(rj - ref) <= 1e-15 * abs(ref)
            assert abs(big_r(zj, alpha, q) - rj) <= 1e-15 * abs(rj)
        other = factor(c1, c1.conjugate(), d1.conjugate())
        assert abs(big_r(c1, alpha, q) - 1j * d1 * other) <= 1e-15 * abs(d1 * other)

    def test_big_r_square(self):
        alpha = 0.5 + 0.6j
        for z in (0.3 + 1.4j, -2.0 - 0.3j, 1.9 + 0.1j):
            r = big_r(z, alpha, 1.0)
            quartic = (z - 1j) * (z + 1j) * (z - alpha) * (z - alpha.conjugate())
            assert abs(r * r - quartic) < 1e-12 * abs(quartic)


def _rho1_arrays(lam, alpha, xi0, t, L, q):
    # rho1 and its slope over a node array, in the scalar functions' formulas
    dist = np.abs(lam - alpha)
    d2 = lam * lam + q * q
    num = 4.0 * t * dist * (lam - xi0) + 4.0 * L * np.abs(lam)
    dnum = (4.0 * t * ((lam - alpha.real) * (lam - xi0) / dist + dist)
            + np.copysign(4.0 * L, lam))
    return num / np.sqrt(d2), (dnum - num * lam / d2) / np.sqrt(d2)


def _window_state(mu, q):
    st = solve_endpoint(mu, q)
    return st.alpha, mu - st.alpha.real


class TestRho1Bump:
    @pytest.mark.parametrize("alpha, xi0, t, L, q", [
        (0.5 + 0.6j, 0.4, 0.45, 1.0, 1.0), (0.3 + 1.7j, -0.2, 0.1, 2.0, 2.0),
        (1.1 + 0.2j, 0.9, 2.0, 1.0, 0.5)])
    def test_slope_matches_central_difference(self, alpha, xi0, t, L, q):
        for lam in (-9.0, -1.3, -0.2, -1e-3, 0.7):
            h = 1e-5 * max(1.0, abs(lam))
            fd = (rho1_value(lam + h, alpha, xi0, t, L, q)
                  - rho1_value(lam - h, alpha, xi0, t, L, q)) / (2 * h)
            slope = rho1_slope(lam, alpha, xi0, t, L, q)
            assert abs(slope - fd) <= 1e-8 * max(1.0, abs(slope)), lam
            # the scan tests' array form rounds |lam - alpha| its own way
            arr = _rho1_arrays(np.array([lam]), alpha, xi0, t, L, q)[1][0]
            assert abs(arr - slope) <= 1e-14 * max(1.0, abs(slope))

    @pytest.mark.parametrize("q, L, x, dt", [(1.0, 1.0, 0.3, 0.05), (2.0, 1.0, 0.6, 0.02),
                                             (1.0, 2.0, 0.2, 0.3)])
    def test_bump_at_the_slope_root(self, q, L, x, dt):
        t = (L - x) / (2.0 * math.sqrt(2.0) * q) + dt
        mu = (L - x) / (2.0 * t)
        alpha, xi0 = _window_state(mu, q)
        value, lam_star = rho1_bump_max(alpha, xi0, t, L, q)
        lo, hi = _rho1_window(xi0, t, L, q)
        assert lo < lam_star < hi
        assert abs(rho1_slope(lam_star, alpha, xi0, t, L, q)) < 1e-12
        assert value == rho1_value(lam_star, alpha, xi0, t, L, q)
        grid = _rho1_arrays(np.linspace(lo, hi, 200001), alpha, xi0, t, L, q)[0]
        # the grid's rho1 rounds differently: allow its terms' O(4L) ulps
        assert value >= grid.max() - 4e-15 * L

    def test_bump_at_window_end(self):
        # far past T2 rho1 rises over the whole window: the maximum is its end
        q, L, mu, t = 1.0, 1.0, 0.9, 5.0
        alpha, xi0 = _window_state(mu, q)
        lo, hi = _rho1_window(xi0, t, L, q)
        slopes = _rho1_arrays(np.linspace(lo, hi, 20001), alpha, xi0, t, L, q)[1]
        assert np.all(slopes > 0)
        assert rho1_bump_max(alpha, xi0, t, L, q) == (rho1_value(hi, alpha, xi0, t, L, q), hi)

    def test_one_critical_point_per_window(self):
        # the bump search's premise: on every window the slope changes sign
        # at most once, and only from rising to falling
        bumps = ends = 0
        for q in (0.5, 2.0):
            for L in (1.0, 2.0):
                for mu_q in (0.05, 0.3, 0.7, 1.0, 1.4):
                    for t_unit in (0.02, 0.1, 0.3, 1.0, 3.0):
                        t = t_unit * L / q
                        alpha, xi0 = _window_state(mu_q * q, q)
                        lo, hi = _rho1_window(xi0, t, L, q)
                        lam = np.linspace(lo, hi, 20001)
                        slopes = _rho1_arrays(lam, alpha, xi0, t, L, q)[1]
                        flips = np.flatnonzero(np.diff(np.signbit(slopes)))
                        assert len(flips) <= 1, (q, L, mu_q, t_unit)
                        assert slopes[0] > 0, (q, L, mu_q, t_unit)
                        bumps += len(flips)
                        ends += 1 - len(flips)
        # the grid holds windows of both kinds
        assert bumps > 0 and ends > 0


class TestBreakingTimes:
    def test_first_breaking_values(self):
        assert abs(first_breaking_time(0.0, P) - 0.3535533905932738) < 1e-15
        assert abs(first_breaking_time(0.5, P) - first_breaking_time(-0.5, P)) == 0
        assert first_breaking_time(1.0 - 1e-9, P) < 1e-9
        with pytest.raises(ValueError):
            first_breaking_time(1.0, P)

    def test_first_breaking_over_an_array(self):
        # elementwise the same closed form, bit for bit, and one node on or
        # past the edge rejects the array
        x = np.linspace(-1.0, 1.0, 4097)[1:-1]
        t1 = first_breaking_time(x, P)
        assert t1.tolist() == [first_breaking_time(float(xx), P) for xx in x]
        with pytest.raises(ValueError):
            first_breaking_time(np.array([0.0, -1.0]), P)

    @pytest.mark.parametrize("x", [0.25, 0.5, 0.75])
    def test_second_after_first(self, x):
        t2 = second_breaking_time(x, P, tol=1e-8)
        assert t2 > first_breaking_time(x, P)

    def test_root_count_flips_across_t2(self):
        x = 0.5
        t2 = second_breaking_time(x, P)

        def count(t):
            mu = (P.L - x) / (2 * t)
            st = solve_endpoint(mu, P.q)
            return len(rho1_real_roots(st.alpha, mu - st.alpha.real, t, P.L, P.q))

        assert count(t2 - 1e-3) == 2
        assert count(t2 + 1e-3) == 0

    @pytest.mark.parametrize("mu", [0.4, 0.9, 1.3])
    def test_ray_time_meets_the_curve(self, mu):
        # the ray of constant mu crosses T2(x) at x = L - 2 mu T2_ray
        t_ray = ray_breaking_time(mu, P)
        x = P.L - 2.0 * mu * t_ray
        assert abs(second_breaking_time(x, P) - t_ray) < 1e-8

    def test_pinch_at_origin(self):
        # the oscillatory window has zero width at x = 0: T2 descends to
        # T1(0) only in the limit x -> 0, so the double-root search fails
        with pytest.raises(PinchPointError, match="no root pair just past T1"):
            second_breaking_time(0.0, P)

    def test_pinch_limit_slope(self):
        # T2(x) - T1(0) ~ x / (2 sqrt2 q) as x -> 0, with an error linear in
        # x: the window closes continuously at the pinch, where criterion 7
        # finds no T2
        for q in (1.0, 2.0):
            p = BarrierParams(q, 1.0, 0.1)
            limit = 1.0 / (2.0 * math.sqrt(2.0) * q)
            errs = [abs((second_breaking_time(x, p) - first_breaking_time(0.0, p)) / x - limit)
                    for x in (1e-3, 3e-4)]
            assert errs[1] < 1.5e-4 * limit
            assert errs[1] < 0.5 * errs[0]

    @pytest.mark.parametrize("q,L", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_t2_near_the_barrier_edge(self, q, L):
        # T1 -> 0 as |x| -> L while T2 -> L/q; the search window in w does
        # not shrink with T1, so the bracket is found up to (1 - 1e-5) L
        p = BarrierParams(q, L, 0.1)
        for x_frac, t2_unit in ((0.999, 0.99159), (0.9999, 0.99815), (0.99999, 0.99960)):
            t2 = second_breaking_time(x_frac * L, p)
            assert t2 == pytest.approx(t2_unit * L / q, abs=1e-5 * L / q)

    @pytest.mark.parametrize("q,L", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    @pytest.mark.parametrize("gap", [1e-6, 1e-9])
    def test_endpoint_floor_ends_the_search_at_the_edge(self, q, L, gap):
        # mu at T2 ~ L/q is (L - |x|) q / (2L), below the endpoint solver's
        # floor for L - |x| < 3.7e-6 L: the window stops at that floor.
        # mu(m) at the floating-point m = 1 - 1e-14 is 1.8497e-6 q (mpmath, 50 digits)
        p = BarrierParams(q, L, 0.1)
        assert genus1.endpoint_mu_floor(q) == pytest.approx(1.8497e-6 * q, rel=1e-3)
        with pytest.raises(PinchPointError, match="search window exhausted"):
            second_breaking_time((1.0 - gap) * L, p)


class TestT2SearchCost:
    """The T2 search solves the endpoint at most once and never reads its residuals."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        orig = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_no_residual_quadrature(self, monkeypatch):
        calls = self._count(monkeypatch, phase_geometry, "endpoint_residuals")
        second_breaking_time(0.3, P)
        assert calls == []
        monkeypatch.setattr(field, "_T2_CACHE", {})
        t1 = first_breaking_time(0.3, P)
        assert field.classify(0.3, 1.5 * t1, P).T2 is not None
        assert calls == []

    def test_no_endpoint_inversion_per_search(self, monkeypatch):
        # the trial times come from the closed-form endpoint in m1 = 1 - m,
        # the start point is a constant, and the search makes no more bump
        # searches than the nested design did (7, 9 and 21 at x = 0.1, 0.5
        # and 0.9, one endpoint solve per bump search)
        solves = self._count(monkeypatch, phase_geometry, "_v_from_mu")
        bumps = self._count(monkeypatch, phase_geometry, "rho1_bump_max")
        for x, nested_bumps in ((0.1, 7), (0.5, 9), (0.9, 21)):
            solves.clear()
            bumps.clear()
            second_breaking_time(x, P)
            assert solves == []
            assert 0 < len(bumps) <= nested_bumps
            # brentq's repeated bracket ends come from the search's cache
            assert len({args[2] for args in bumps}) == len(bumps)

    @pytest.mark.parametrize("x", [0.1, 0.9])
    def test_no_mu_solved_twice(self, monkeypatch, x):
        # brentq evaluates its bracket ends again and the double-root polish
        # revisits the root: each must come from the search's own cache
        solves = self._count(monkeypatch, phase_geometry, "_endpoint")
        second_breaking_time(x, P)
        m1s = [args[0] for args in solves]
        assert len(m1s) > 0
        assert len(set(m1s)) == len(m1s)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_start_point_is_the_inverted_one(self, q, frac):
        # the start t = 1.0001 T1(x) has mu = sqrt2 q / 1.0001 up to rounding
        p = BarrierParams(q, 1.0, 0.05)
        x = frac * p.L
        mu = (p.L - x) / (2.0 * 1.0001 * first_breaking_time(x, p))
        w = phase_geometry._v_from_mu(mu, q) ** 2
        assert abs(w - phase_geometry._W_START) <= 1e-11 * w

    def test_no_ray_time_bumped_twice(self, monkeypatch):
        bumps = self._count(monkeypatch, phase_geometry, "rho1_bump_max")
        ray_breaking_time(0.9, P)
        ts = [args[2] for args in bumps]
        assert len(ts) > 0
        assert len(set(ts)) == len(ts)


class TestScalingLaw:
    """psi(x, t; q, L, eps) = q phi(x/L, qt/L; eps/(qL)): every entry point outside
    S2 gives the unit problem's answer in the units q, L and L/q. Scaling by a
    power of two is exact in floating point, so there the answers are the
    unit answers bit for bit. Elsewhere x L is rounded, and near the edge
    L - |x| keeps only ulp(L) of it: the answers agree to 1e-13 of their unit."""

    XS = (0.01, 0.3, 0.5, 0.75, 0.9, 0.999, 0.99999)
    MUS = (1e-4, 0.01, 0.4, 0.9, 1.3, 1.41)
    # (x/L, qt/L): S1, S2 at three x, past T2, the pinch point, within 1e-4 L
    # of the edge before T1, S0
    POINTS = ((0.3, 0.1), (0.25, 0.3), (0.5, 0.5), (0.9, 0.5), (0.3, 0.95), (0.0, 0.5),
              (0.9999, 1e-5), (1.5, 0.2))

    @pytest.mark.parametrize("q, L, rtol", [
        (2.0, 1.0, 0.0), (1.0, 2.0, 0.0), (4.0, 0.5, 0.0),
        (0.7, 1.9, 1e-13), (1.0, 1e-9, 1e-13), (1.0, 1e7, 1e-13), (1e-7, 1.0, 1e-13),
        (1e-4, 1e4, 1e-13)])
    def test_entry_points_scale(self, monkeypatch, q, L, rtol):
        monkeypatch.setattr(field, "_T2_CACHE", {})
        p = BarrierParams(q, L, 0.1 * q * L)
        t_unit = L / q

        def same(v, v_unit, unit):
            if v_unit is None:
                assert v is None
            else:
                assert abs(v - unit * v_unit) <= rtol * unit, (v, unit * v_unit)

        for x in self.XS:
            same(first_breaking_time(x * L, p), first_breaking_time(x, P), t_unit)
            same(second_breaking_time(x * L, p), second_breaking_time(x, P), t_unit)
        for mu in self.MUS:
            same(ray_breaking_time(mu * q, p), ray_breaking_time(mu, P), t_unit)
            same(solve_endpoint(mu * q, q).alpha, solve_endpoint(mu, 1.0).alpha, q)
        for x, t in self.POINTS:
            reg, reg_unit = field.classify(x * L, t * t_unit, p), field.classify(x, t, P)
            assert reg.label == reg_unit.label, (x, t)
            same(reg.T1, reg_unit.T1, t_unit)
            same(reg.T2, reg_unit.T2, t_unit)
        rows = [line.split(",") for line in field.breaking_curves(-1.1 * L, 1.1 * L, 12, p)[1:]]
        rows_unit = [line.split(",") for line in field.breaking_curves(-1.1, 1.1, 12, P)[1:]]
        for row, row_unit in zip(rows, rows_unit, strict=True):
            for v, v_unit, unit in zip(row, row_unit, (L, t_unit, t_unit), strict=True):
                same(float(v) if v else None, float(v_unit) if v_unit else None, unit)


class TestSelfSimilarity:
    """Along a ray of constant mu = (L - x)/(2t) the endpoint alpha is fixed,
    the integrands of Omega and eta are linear in (t, x - L) = t (1, -2 mu),
    and the tau1 b-period is Omega times constants of alpha. So H, A_inf,
    c_nu and c_tau depend on mu alone, bit for bit, and those three on mu
    alone once divided by t, to rounding. T0 and Y0 read xi1, the left root
    of rho1, which moves with L/t."""

    @pytest.mark.parametrize("q, L, mu", [(1.0, 1.0, 0.9), (1.0, 1.0, 1.3), (2.0, 1.0, 1.8)])
    def test_constants_along_a_ray(self, q, L, mu):
        p = BarrierParams(q, L, 0.05)
        alpha = solve_endpoint(mu, q).alpha
        (t_a, a), *rest = [(t, genus1.modulation_constants(alpha, L - 2.0 * mu * t, t, p))
                           for t in (0.2 * L / q, 0.25 * L / q, 0.3 * L / q)]
        for t, m in rest:
            assert (m.H, m.A_inf, m.c_nu, m.c_tau) == (a.H, a.A_inf, a.c_nu, a.c_tau)
            for name in ("tau1_b_period", "Omega", "eta"):
                v, v_a = getattr(m, name) / t, getattr(a, name) / t_a
                assert abs(v - v_a) <= 1e-14 * abs(v_a), name
            # they move by 2e-3 to 1e-2 (T0) and 6e-4 to 2e-3 (Y0), far above rounding
            assert abs(m.T0 - a.T0) > 1e-4 * abs(a.T0)
            assert abs(m.Y0 - a.Y0) > 1e-4 * abs(a.Y0)
