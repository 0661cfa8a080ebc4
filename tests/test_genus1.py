import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from sqnls import genus1, specfun
from sqnls.genus1 import (
    RealityError,
    abel_map,
    alpha_from_m,
    char_speed,
    elliptic_parameter,
    endpoint_residuals,
    modulation_constants,
    mu_from_m,
    period_integrals,
    psi_asy_g1,
    seg_integral_inv_r,
    solve_endpoint,
)
from sqnls.phase_geometry import first_breaking_time, second_breaking_time
from sqnls.scattering import BarrierParams
from sqnls.specfun import QuadratureSpec, complete_elliptic

Q = 1.0
SQRT2 = math.sqrt(2.0)
QUAD = QuadratureSpec(target_abs_tol=1e-12)


def _s2_point(x=0.25, frac=0.5, eps=0.05):
    p = BarrierParams(1.0, 1.0, eps)
    t1 = first_breaking_time(x, p)
    t2 = second_breaking_time(x, p)
    t = t1 + frac * (t2 - t1)
    mu = (p.L - x) / (2 * t)
    return p, x, t, solve_endpoint(mu, p.q)


# points of the band pass tests: near mu = sqrt2 q (t just past T1) and near
# t = T2 the shared heap must refine both bands at once
_BAND_POINTS = [(0.25, 0.5, 1e-10), (0.05, 0.001, 1e-12), (0.95, 0.001, 1e-12),
                (0.05, 0.999, 1e-12), (0.95, 0.999, 1e-12)]


def _band_point(x, frac):
    from sqnls.phase_geometry import rho1_real_roots

    p, x, t, st = _s2_point(x, frac)
    xi0 = st.mu - st.alpha.real
    return p, x, t, st, xi0, rho1_real_roots(st.alpha, xi0, t, p.L, p.q)[0]


def _band1_terms(a, x_minus_l, t, q):
    # band 1's columns of the band pass: the Omega loop, 1/R and num2/R
    def g(z, r):
        loop = (r / (z * z + q * q)) * (t * (2 * z + a + a.conjugate()) + x_minus_l)
        return np.stack((loop, 1.0 / r, z * (z - a.real) / r), axis=1)
    return g


class TestEndpointFromM:
    def test_limit_real(self):
        assert abs(alpha_from_m(1e-10, Q) - Q / SQRT2) < 1e-9

    def test_limit_iq(self):
        assert abs(alpha_from_m(1.0 - 1e-10, Q) - 1j * Q) < 1e-4

    def test_small_m_expansion(self):
        # alpha = q/sqrt2 + (3iq/8) m + O(m^2); the remainder is quadratic
        rem = [abs(alpha_from_m(m, Q) - (Q / SQRT2 + 3j * Q * m / 8)) for m in (0.05, 0.025)]
        assert rem[0] < 6e-4
        assert abs(rem[0] / rem[1] - 4.0) < 0.5

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_round_trip(self, m):
        assert abs(elliptic_parameter(alpha_from_m(m, Q), Q) - m) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_from_m(0.0, Q)
        with pytest.raises(ValueError):
            alpha_from_m(1.0, Q)


class TestEndpointPrecision:
    # (m1, Re alpha, Im alpha, mu) at q = 1, computed once with mpmath at 50
    # digits from A = ((2-m)E - 2(1-m)K)/(m^2 E), alpha = sqrt(4A - (1+mA)^2) + i m A
    # and mu = (2a^2 - b^2 + 1)/(2a), with m = 1 - m1 taken exactly
    REFERENCE = [
        (1e-2, 0.18818143770642658, 0.94671795031591816, 0.46378014662755732),
        (1e-5, 0.006323005083038042, 0.99987714806709791, 0.025751170170698043),
        (1e-8, 0.00019999988971131054, 0.99999980806731364, 0.0011596637586265),
        (1e-11, 6.3245553141571336e-6, 0.99999999973898975, 4.759389907618377e-5),
        (1e-14, 1.999999999996956e-7, 0.99999999999966991, 1.850439001209628e-6),
    ]

    @pytest.mark.parametrize("m1,a_ref,b_ref,mu_ref", REFERENCE)
    def test_no_cancellation_near_m_one(self, m1, a_ref, b_ref, mu_ref):
        alpha, mu = genus1._endpoint(m1, 1.0)
        assert abs(alpha.real - a_ref) <= 1e-13 * a_ref
        assert abs(alpha.imag - b_ref) <= 1e-13 * b_ref
        assert abs(mu - mu_ref) <= 1e-13 * mu_ref

    # (m, Re alpha, Im alpha, mu) at q = 1 and m1 = 1.0 - m in floats, from
    # the same formulas at 50 digits with m = 1 - m1 taken exactly
    SMALL_M = [
        (1e-6, 0.7071067811864895194897, 3.750001875108917834833e-7, 1.414213562372995611811),
        (9.9e-5, 0.7071067806179856719029, 3.712683779267059455074e-5, 1.414213561398417587335),
        (1.01e-4, 0.7071067805947802498392, 3.787691279919683737773e-5, 1.414213561358636863794),
        (2e-4, 0.7071067788658892801674, 7.500750086728940951124e-5, 1.414213558394823772285),
        (1e-3, 0.707106723123639718485, 3.75187608467332306585e-4, 1.414213462836681236328),
        (1e-2, 0.7071009221945220810553, 3.768859091626124225193e-3, 1.414203518382378084194),
        (0.029, 0.7070565483524803611246, 1.103538090405754674623e-2, 1.414127448620732420016),
        (0.031, 0.7070492633186772293338, 1.180848174987872142876e-2, 1.414114959891018686458),
        (0.1, 0.7064632979337954809989, 3.949078720003085390299e-2, 1.413110395275212035123),
    ]

    @pytest.mark.parametrize("m,a_ref,b_ref,mu_ref", SMALL_M)
    def test_no_cancellation_near_m_zero(self, m, a_ref, b_ref, mu_ref):
        # A has a removable singularity at m = 0, where its closed form
        # cancels like 1e-16 / m^2
        alpha, mu = genus1._endpoint(1.0 - m, 1.0)
        assert abs(alpha - complex(a_ref, b_ref)) <= 1e-12 * abs(complex(a_ref, b_ref))
        assert abs(mu - mu_ref) <= 1e-12 * mu_ref

    # (mu, m1, Re alpha, Im alpha) at q = 1: the root of mu(m1) = mu and its
    # endpoint, computed once with mpmath at 50 digits from the formulas above
    SOLVED = [
        (1e-2, 1.1783741409172078e-6, 0.002170975152716503, 0.99998300323714157),
        (1e-3, 7.2324560228776267e-9, 0.00017008762533335116, 0.999999858842165),
        (1e-4, 4.9220720262314858e-11, 1.4031495977492118e-5, 0.99999999879373328),
        (1e-5, 3.5789707315929088e-13, 1.1964899884711304e-6, 0.99999999998946669),
    ]

    @pytest.mark.parametrize("mu,m1_ref,a_ref,b_ref", SOLVED)
    def test_solved_endpoint_belongs_to_mu(self, mu, m1_ref, a_ref, b_ref):
        # inverted in v = -log m1, the endpoint keeps its precision where m
        # is spaced 1.1e-16 apart (an inversion over m missed Re alpha by
        # 5e-4 relative at mu = 1e-5)
        st = solve_endpoint(mu, 1.0)
        assert abs(st.alpha.real - a_ref) <= 1e-13 * a_ref
        assert abs(st.alpha.imag - b_ref) <= 1e-15
        assert abs((1.0 - st.m) - m1_ref) <= 1.2e-16

    @pytest.mark.parametrize("m", [1e-5, 0.037, 0.5, 0.9])
    def test_from_m_is_the_m1_form(self, m):
        alpha, mu = genus1._endpoint(1.0 - m, Q)
        assert alpha_from_m(m, Q) == alpha
        assert mu_from_m(m, Q) == mu


class TestSolveEndpoint:
    def test_mu_monotone(self):
        ms = np.linspace(1e-6, 1 - 1e-6, 50)
        mus = [mu_from_m(float(m), Q) for m in ms]
        assert all(b < a for a, b in zip(mus[:-1], mus[1:]))

    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.9, 1.2, 1.39])
    def test_residuals_small(self, mu):
        st = solve_endpoint(mu, Q)
        scale = 1.0 * Q * Q  # residuals evaluated at reference t = 1
        assert st.res_moment < 1e-10 * scale
        assert st.res_gap < 1e-10 * scale

    def test_limiting_values(self):
        st_hi = solve_endpoint(0.999 * SQRT2 * Q, Q)
        assert st_hi.alpha.imag < 0.05 * Q
        st_lo = solve_endpoint(0.01 * SQRT2 * Q, Q)
        assert abs(st_lo.alpha - 1j * Q) < 0.05 * Q

    def test_out_of_window(self):
        with pytest.raises(ValueError):
            solve_endpoint(SQRT2 * Q, Q)
        with pytest.raises(ValueError):
            solve_endpoint(0.0, Q)

    def test_residuals_lazy_and_computed_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return endpoint_residuals(*args, **kwargs)

        monkeypatch.setattr(genus1, "endpoint_residuals", counting)
        st = solve_endpoint(0.9, Q)
        assert calls == []
        first = (st.res_moment, st.res_gap)
        assert (st.res_moment, st.res_gap) == first
        assert len(calls) == 1
        f_m, f_g = endpoint_residuals(st.alpha, -2.0 * 0.9, 1.0, Q)
        assert first == (abs(f_m), abs(f_g))

    def test_state_fields_frozen(self):
        st = solve_endpoint(0.9, Q)
        assert [f.name for f in fields(st)] == ["mu", "m", "alpha", "q"]
        assert st.q == Q
        with pytest.raises(FrozenInstanceError):
            st.alpha = 0j
        with pytest.raises(AttributeError):
            st.res_gap = 0.0


class TestEndpointResiduals:
    def test_moment_at_real_alpha(self):
        # F_M(q/sqrt2) = 2 t q (q - mu/sqrt2)
        t, mu = 0.7, 1.1
        f_m, _ = endpoint_residuals(Q / SQRT2 + 0j, -2 * mu * t, t, Q)
        assert abs(f_m - 2 * t * Q * (Q - mu / SQRT2)) < 1e-14

    def test_gap_at_iq(self):
        # F_G(iq) = -4 i q t mu
        t, mu = 0.4, 0.8
        _, f_g = endpoint_residuals(1j * Q, -2 * mu * t, t, Q)
        assert abs(f_g + 4j * Q * t * mu) < 1e-10

    def test_solved_state_consistency(self):
        st = solve_endpoint(0.8, Q)
        f_m, f_g = endpoint_residuals(st.alpha, -2 * 0.8 * 2.5, 2.5, Q)
        assert abs(f_m) < 1e-10 * 2.5
        assert abs(f_g) < 1e-9 * 2.5


class TestCharSpeed:
    def test_real_alpha_limit(self):
        assert abs(char_speed(Q / SQRT2 + 0j, Q) + Q / SQRT2) < 1e-14

    def test_degenerate_at_iq(self):
        with pytest.raises(ZeroDivisionError):
            char_speed(1j * Q, Q)

    @pytest.mark.parametrize("mu", [0.3, 0.7, 1.1, 1.39])
    def test_selfsimilar_characteristic(self, mu):
        # on the solution branch the speed collapses to -2 mu
        st = solve_endpoint(mu, Q)
        assert abs(char_speed(st.alpha, Q) + 2 * mu) < 1e-12

    def test_whitham_residual(self):
        p = BarrierParams(1.0, 1.0, 0.05)
        x, t, h = 0.3, 0.3, 1e-4

        def alpha_at(xx, tt):
            return solve_endpoint((p.L - xx) / (2 * tt), p.q).alpha

        a_t = (alpha_at(x, t + h) - alpha_at(x, t - h)) / (2 * h)
        a_x = (alpha_at(x + h, t) - alpha_at(x - h, t)) / (2 * h)
        c = char_speed(alpha_at(x, t), p.q)
        assert abs(a_t + c * a_x) / abs(a_x) < 1e-4


class TestPeriods:
    @pytest.mark.parametrize("mu", [0.3, 0.7, 1.1, 1.35])
    def test_elliptic_reduction(self, mu):
        st = solve_endpoint(mu, Q)
        K, _ = complete_elliptic(st.m)
        seg = seg_integral_inv_r(st.alpha, Q, QUAD)
        assert abs(seg - 2j * K / abs(st.alpha + 1j * Q)) < 1e-8

    @pytest.mark.parametrize("mu", [0.3, 0.9, 1.35])
    def test_h_real_negative(self, mu):
        st = solve_endpoint(mu, Q)
        H, a_per, a_inf, c_nu = period_integrals(st.alpha, Q, QUAD)
        assert H < 0
        # normalized a-period is 2 pi i by construction
        assert abs(c_nu * a_per - 2j * math.pi) < 1e-12

    @pytest.mark.parametrize("mu", [0.3, 0.9, 1.35])
    def test_abel_anchors(self, mu):
        st = solve_endpoint(mu, Q)
        H, _, _, c_nu = period_integrals(st.alpha, Q, QUAD)
        assert abel_map(1j * Q, st.alpha, c_nu, Q, QUAD) == 0.0
        a_ast = abel_map(st.alpha.conjugate(), st.alpha, c_nu, Q, QUAD)
        assert abs(a_ast - (1j * math.pi + 0.5 * H)) < 1e-8

    def test_dual_path_invariance(self):
        st = solve_endpoint(0.8, Q)
        _, _, _, c_nu = period_integrals(st.alpha, Q, QUAD)
        z = 3.0 - 0.4j
        direct = abel_map(z, st.alpha, c_nu, Q, QUAD)
        from sqnls.phase_geometry import big_r
        from sqnls.specfun import quad_path
        detour = c_nu * quad_path(lambda lam: 1.0 / big_r(lam, st.alpha, Q),
                                  [1j * Q, 6.0 + 2.0j, z], QuadratureSpec(1e-12))
        assert abs(direct - detour) < 1e-10

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            period_integrals(1j * Q, Q)

    def test_non_real_b_period_raises_reality_error(self, monkeypatch):
        st = solve_endpoint(0.9, Q)
        b_cycle = genus1._b_cycle
        monkeypatch.setattr(genus1, "_b_cycle", lambda *args: (1.0 + 0.1j) * b_cycle(*args))
        with pytest.raises(RealityError) as err:
            period_integrals(st.alpha, Q, QUAD)
        bad = err.value.value
        assert isinstance(err.value, RuntimeError)
        assert abs(bad.imag) > 0.05 * abs(bad)
        assert str(err.value) == f"b-period came out non-real: {bad}"


class TestModulationConstants:
    def test_lemma_tau_consistency(self):
        p, x, t, st = _s2_point()
        mods = modulation_constants(st.alpha, x, t, p)
        assert abs(mods.tau1_b_period + mods.Omega) < 1e-8

    def test_reality_defect_reports_h(self, monkeypatch):
        # an imaginary part of H below the RealityError threshold is
        # discarded when H is stored, and must show in reality_defect
        p, x, t, st = _s2_point()
        clean = modulation_constants(st.alpha, x, t, p)
        normalize = genus1._normalize
        monkeypatch.setattr(genus1, "_normalize",
                            lambda seg, b: normalize(seg, b * (1.0 + 1e-10j)))
        mods = modulation_constants(st.alpha, x, t, p)
        assert clean.reality_defect < 1e-12
        assert mods.reality_defect == pytest.approx(1e-10 * abs(mods.H), rel=1e-3)

    def test_reality_defect_reports_tau1_b_period(self, monkeypatch):
        # an imaginary part of the num2/R b-period enters T0 and the tau1
        # b-period; here |tau1| ~ |Omega| is 12 times |T0|, so tau1's share
        # is the one reality_defect must report
        p, x, t, st = _s2_point()
        band_pass = genus1._band_pass
        band1 = []

        def perturbed(*args):
            band1.append(band_pass(*args))
            return band1[-1] + np.array([0.0, 0.0, 1e-10j, 0.0, 0.0, 0.0, 0.0])

        monkeypatch.setattr(genus1, "_band_pass", perturbed)
        mods = modulation_constants(st.alpha, x, t, p)
        b_num = 2.0 * (band1[0][2] + mods.c_tau * band1[0][1])
        assert abs(mods.tau1_b_period) > 10 * abs(mods.T0)
        assert mods.reality_defect == pytest.approx(
            abs(mods.tau1_b_period / b_num.real) * 2e-10, rel=1e-3)

    def test_selfsimilar_scaling(self):
        # Omega / t and eta / t depend on (x, t) only through mu
        p = BarrierParams(1.0, 1.0, 0.05)
        x1, t1v = 0.25, 0.4
        mu = (p.L - x1) / (2 * t1v)
        st = solve_endpoint(mu, p.q)
        t2v = 0.3
        x2 = p.L - 2 * mu * t2v
        m1 = modulation_constants(st.alpha, x1, t1v, p)
        m2 = modulation_constants(st.alpha, x2, t2v, p)
        assert abs(m1.Omega / t1v - m2.Omega / t2v) < 1e-8 * max(1.0, abs(m1.Omega / t1v))
        assert abs(m1.eta / t1v - m2.eta / t2v) < 1e-8 * max(1.0, abs(m1.eta / t1v))

    def test_chi_transforms_run_once_per_xi(self, monkeypatch):
        # one band pass carries both bands, and its first panels converge:
        # chi_batch runs once per xi, on all 180 band points
        p, x, t, st = _s2_point()
        sizes = []
        chi_batch = genus1.chi_batch

        def counting(z, *args):
            sizes.append(z.size)
            return chi_batch(z, *args)

        monkeypatch.setattr(genus1, "chi_batch", counting)
        modulation_constants(st.alpha, x, t, p)
        assert sizes == [180, 180]

    def test_one_quadrature_pass_per_contour(self, monkeypatch):
        # the band pass (band 1's columns and the p0 weights of both bands),
        # the segment alpha* -> alpha and the ray iq -> i inf; the chi
        # transforms run in scattering's namespace
        calls = []
        for name in ("quad_path", "quad_ray_to_inf"):
            def counting(*args, _quad=getattr(genus1, name), _name=name, **kwargs):
                calls.append(_name)
                return _quad(*args, **kwargs)

            monkeypatch.setattr(genus1, name, counting)
        p, x, t, st = _s2_point()
        modulation_constants(st.alpha, x, t, p)
        assert sorted(calls) == ["quad_path"] * 2 + ["quad_ray_to_inf"]

    @pytest.mark.parametrize("x,frac", [(0.25, 0.5), (0.05, 0.001), (0.95, 0.999), (0.6, 0.3)])
    def test_holomorphic_data_matches_period_integrals(self, x, frac):
        # period_integrals runs its own three quadratures
        p, x, t, st = _s2_point(x, frac)
        mods = modulation_constants(st.alpha, x, t, p)
        H, _, a_inf, c_nu = period_integrals(st.alpha, p.q)
        assert abs(mods.H - H) <= 1e-11
        assert abs(mods.A_inf - a_inf) <= 1e-11
        assert abs(mods.c_nu - c_nu) <= 1e-11

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.9, 1.35])
    def test_paths_enclose_no_cut(self, mu):
        # the gap integrals over alpha* -> xi -> alpha equal the segment's for
        # xi = xi0 (right of Re alpha) and its mirror image (left of it); the
        # Y0 ray iq -> +inf equals the ray iq -> i inf
        from sqnls.phase_geometry import big_r
        from sqnls.specfun import quad_path, quad_ray_to_inf

        a = solve_endpoint(mu, Q).alpha
        quad = QuadratureSpec(1e-11)

        def gap_terms(z):
            return np.stack((np.ones_like(z), z - a.real), axis=1) / big_r(z, a, Q)[:, None]

        segment = quad_path(gap_terms, [a.conjugate(), a], quad)
        xi0 = mu - a.real
        for xi in (xi0, 2 * a.real - xi0):
            split = (quad_path(gap_terms, [a.conjugate(), xi + 0j], quad)
                     + quad_path(gap_terms, [xi + 0j, a], quad))
            assert np.max(np.abs(split - segment)) <= 1e-12

        def ray_terms(z):
            inv_r = 1.0 / big_r(z, a, Q)
            return np.stack((inv_r, z * (z - a.real) * inv_r - 1.0), axis=1)

        rays = [quad_ray_to_inf(ray_terms, 1j * Q, d, quad, sqrt_start=True) for d in (1.0, 1j)]
        assert np.max(np.abs(rays[0] - rays[1])) <= 1e-12

    @pytest.mark.parametrize("x,frac,tol", _BAND_POINTS)
    def test_band_pass_matches_per_band_route(self, x, frac, tol):
        # band 1's columns against _cut_integral, and the p0 band integrals
        # against each band on its own cut, with its own log term and chi
        # transforms
        from sqnls.scattering import chi_batch

        p, x, t, st, xi0, xi1 = _band_point(x, frac)
        a, q = st.alpha, p.q
        quad, chi_quad = QuadratureSpec(tol), QuadratureSpec(1e-11)

        def terms(band):
            def g(z, r_side):
                if band == 1:
                    logterm = np.log(2.0 * (z + 1j * q) / q)
                else:
                    logterm = np.log(q / (2.0 * (z - 1j * q)))
                j = logterm - 2.0 * (chi_batch(z, xi1, q, chi_quad)
                                     + chi_batch(z, xi0, q, chi_quad))
                return np.stack((j / r_side, (z - a.real) * j / r_side), axis=1)
            return g

        def band2(s):
            c1, d1 = genus1._cut1(a, q)
            c2, d2 = genus1._cut2(a, q)
            z, r_side = genus1._r_on_cut(s.real, c2, d2, c1, d1, genus1._BAND2_SIDE)
            return terms(2)(z, r_side) * d2

        per_band = np.concatenate((
            genus1._cut_integral(_band1_terms(a, x - p.L, t, q), a, q, quad),
            -genus1._cut_integral(terms(1), a, q, quad),
            specfun.quad_path(band2, [-1.0, 1.0], quad)))
        one_pass = genus1._band_pass(a, x - p.L, t, xi0, xi1, q, quad, chi_quad)
        assert one_pass.shape == (7,)
        assert np.max(np.abs(one_pass - per_band)) < 1e-12

    @pytest.mark.parametrize("x,frac,tol", _BAND_POINTS)
    def test_band1_adds_no_panel(self, x, frac, tol, monkeypatch):
        # band 1's columns never need more panels on their own than the p0
        # columns do, so folding them into the band pass adds no chi
        # evaluation; each integrand call after the first bisects one panel
        p, x, t, st, xi0, xi1 = _band_point(x, frac)
        a, q = st.alpha, p.q
        quad, chi_quad = QuadratureSpec(tol), QuadratureSpec(1e-11)
        quad_path = genus1.quad_path
        panels = []

        def counting(f, path, spec, cols=slice(None)):
            n = len(panels)
            panels.append(0)

            def g(s):
                panels[n] += 1
                return f(s)[:, cols]
            return quad_path(g, path, spec)

        monkeypatch.setattr(genus1, "quad_path", counting)
        genus1._cut_integral(_band1_terms(a, x - p.L, t, q), a, q, quad)
        monkeypatch.setattr(genus1, "quad_path",
                            lambda f, path, spec: counting(f, path, spec, slice(3, None)))
        genus1._band_pass(a, x - p.L, t, xi0, xi1, q, quad, chi_quad)
        band1, p0 = panels
        assert band1 <= p0

    def test_band_pass_budget(self, monkeypatch):
        # one pass carries two bands, so it gets twice the panel budget of a
        # per-band run; the both-ended segment doubles it again for its halves
        p, x, t, st, xi0, xi1 = _band_point(0.25, 0.5)
        budgets = []
        adaptive_gl = specfun.adaptive_gl

        def recording(f, a, b, tol, max_panels):
            budgets.append(max_panels)
            return adaptive_gl(f, a, b, tol, max_panels)

        monkeypatch.setattr(specfun, "adaptive_gl", recording)
        genus1._band_pass(st.alpha, x - p.L, t, xi0, xi1, p.q, QuadratureSpec(1e-10, 7),
                          QuadratureSpec(1e-11, 50))
        # the band pass comes first; the chi transforms run inside it
        assert budgets[0] == 4 * 7
        assert set(budgets[1:]) == {50}

    def test_xi0_positive_on_grid(self):
        for mu in np.linspace(0.05, 1.4, 10):
            st = solve_endpoint(float(mu), Q)
            assert mu - st.alpha.real > 0

    @pytest.mark.parametrize("L,x_frac,t_frac", [
        (2.0, 0.7404, 0.7021), (1.0, 0.75, 0.6), (2.0, 0.7341, 0.7292),
        (2.0, 0.7150, 0.6902), (1.0, 0.7819, 0.7043), (2.0, 0.7181, 0.7139)])
    def test_eta_ray_converges_far_out(self, L, x_frac, t_frac):
        # the eta ray integrand used to cancel two terms of size 2t|z|, and
        # the ray map amplified that roundoff past the tolerance at these points
        from sqnls.field import psi_asymptotic

        p = BarrierParams(1.0, L, 0.05)
        x = x_frac * p.L
        t1 = first_breaking_time(x, p)
        t = t1 + t_frac * (second_breaking_time(x, p) - t1)
        assert math.isfinite(abs(psi_asymptotic(x, t, p)))
        st = solve_endpoint((p.L - x) / (2 * t), p.q)
        assert modulation_constants(st.alpha, x, t, p).reality_defect < 1e-8

    def test_beyond_t2_rejected(self):
        p = BarrierParams(1.0, 1.0, 0.05)
        x = 0.25
        t2 = second_breaking_time(x, p)
        mu = (p.L - x) / (2 * (t2 + 0.05))
        st = solve_endpoint(mu, p.q)
        with pytest.raises(ValueError):
            modulation_constants(st.alpha, x, t2 + 0.05, p)


class TestWaveForm:
    def test_fast_phase_periodicity(self):
        p, x, t, st = _s2_point()
        mods = modulation_constants(st.alpha, x, t, p)
        base = psi_asy_g1(x, t, p, st, mods)
        shifted = psi_asy_g1(x, t, p, st, replace(mods, Omega=mods.Omega + 2 * math.pi * p.eps))
        assert abs(shifted - base) < 1e-10
        t0_shift = psi_asy_g1(x, t, p, st, replace(mods, T0=mods.T0 + 2 * math.pi))
        assert abs(t0_shift - base) < 1e-10

    def test_amplitude_prefactor_limit(self):
        st = solve_endpoint(0.999 * SQRT2 * Q, Q)
        assert Q - st.alpha.imag > 0.95 * Q

    def test_bounded_over_fast_phase_scan(self):
        p, x, t, st = _s2_point()
        mods = modulation_constants(st.alpha, x, t, p)
        amps = []
        for k in range(200):
            shift = replace(mods, Omega=mods.Omega + p.eps * 2 * math.pi * k / 200)
            amps.append(abs(psi_asy_g1(x, t, p, st, shift)))
        assert np.all(np.isfinite(amps))
        assert max(amps) < 2.5 * p.q
        assert min(amps) > 0.0
