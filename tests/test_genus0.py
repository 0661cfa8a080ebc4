import math
import warnings

import numpy as np
import pytest

from sqnls import genus0
from sqnls.genus0 import (
    RegionError,
    _crossings,
    _phi0_imagcut,
    build_band_g0,
    omega_phase,
    psi_asy_g0,
    stationary_points_g0,
    wkb_laplace_residual,
)
from sqnls.phase_geometry import first_breaking_time
from sqnls.scattering import BarrierParams

P = BarrierParams(1.0, 1.0, 0.1)


def _omega_density(s: float, q: float) -> float:
    # log(1 + |r0(s)|^2) / nu(s) with nu = sign(s) sqrt(s^2 + q^2) on R
    r = math.hypot(s, q)
    return math.log1p(q * q / (abs(s) + r) ** 2) / math.copysign(r, s)


def _density_integral(lo: float, hi: float, q: float) -> float:
    # scipy's adaptive quad over [lo, hi], split at s = 0, where the density
    # depends on |s| and nu changes sign
    from scipy.integrate import quad

    ends = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
    return sum(quad(_omega_density, a, b, args=(q,), epsabs=1e-13, epsrel=1e-13, limit=200)[0]
               for a, b in zip(ends[:-1], ends[1:]))


class TestStationaryPoints:
    def test_closed_forms(self):
        xi0, xi1 = stationary_points_g0(0.0, 0.25, P)
        assert abs(xi0 - 1.7071067811865475) < 1e-14
        assert abs(xi1 + 1.7071067811865475) < 1e-14

    def test_breaking_limit(self):
        # xi0 -> q / sqrt2 as t -> T1(x)
        for x in (0.0, 0.3, 0.7):
            t1 = first_breaking_time(x, P)
            xi0, _ = stationary_points_g0(x, t1 * (1 - 1e-12), P)
            assert abs(xi0 - 1.0 / math.sqrt(2.0)) < 1e-5
        xi0_exact = -((0.3 - 1.0) / (4 * first_breaking_time(0.3, P)))
        assert abs(xi0_exact - 1.0 / math.sqrt(2.0)) < 1e-14

    def test_rejects_outside(self):
        with pytest.raises(RegionError):
            stationary_points_g0(1.5, 0.1, P)
        with pytest.raises(RegionError):
            stationary_points_g0(0.0, 0.4, P)

    def test_pre_break_crossings(self):
        # b = -1, t = 1/4: crossings (1 -+ sqrt(1/2))
        z0, z1 = _crossings(-1.0, 0.25, 1.0)
        assert abs(z0 - 0.2928932188134524) < 1e-14
        assert abs(z1 - 1.7071067811865475) < 1e-14
        assert abs(z0) < abs(z1)
        # both crossings on the half-plane Re(b z) < 0
        assert -1.0 * z0 < 0 and -1.0 * z1 < 0

    def test_wave_form_reads_t1_once(self, monkeypatch):
        calls = []

        def counted(x, p):
            calls.append(x)
            return first_breaking_time(x, p)

        monkeypatch.setattr(genus0, "first_breaking_time", counted)
        psi_asy_g0(0.3, 0.1, P)
        assert calls == [0.3]


class TestBandContour:
    def test_band_only_before_t1(self):
        # T1(-0.5) = 0.177 at q = L = 1, while the crossings at b = x - L stay
        # real up to t = (L + |x|) / (2 sqrt2 q) = 0.53
        with pytest.raises(RegionError):
            build_band_g0(-0.5, 0.3, P)
        with pytest.raises(ValueError):
            build_band_g0(1.5, 0.1, P)

    def test_band_connects_branch_points(self):
        band = build_band_g0(0.0, 0.2, P)
        assert abs(band.points[0] + 1j) < 1e-12
        assert abs(band.points[-1] - 1j) < 1e-12

    @pytest.mark.parametrize("x,t", [(0.0, 0.2), (0.0, 0.02), (0.9, 0.02), (0.0, 0.34)])
    def test_band_condition(self, x, t):
        # includes the near-axis small-t band and t close to the breaking time
        band = build_band_g0(x, t, P)
        worst = max(abs(_phi0_imagcut(z, x, t, P).imag)
                    for z in band.points if abs(z.imag) < 0.999)
        assert worst < 1e-9

    def test_conjugation_symmetry(self):
        band = build_band_g0(0.3, 0.15, P)
        pts = band.points
        for z in pts[::5]:
            assert min(abs(z.conjugate() - w) for w in pts) < 1e-9

    def test_no_imaginary_axis_crossing(self):
        # interior points stay off the imaginary axis; only termini touch it
        band = build_band_g0(0.2, 0.2, P)
        interior = [z for z in band.points if abs(abs(z.imag) - 1.0) > 1e-3]
        assert min(abs(z.real) for z in interior) > 1e-3

    def test_infinite_branch_crosses_at_xi0(self):
        # just above the local maximum of f(z) = 4 (t z + b)^2 (z^2 + q^2) at
        # the outer crossing, the one root of f = c^2 in Im z > 0 lies on the
        # unbounded branch of Im phi0 = 0, within O(sqrt d) of the closed-form xi0
        x, t = 0.0, 0.2
        b, q = x - P.L, P.q
        xi0, _ = stationary_points_g0(x, t, P)
        quartic = 4 * np.array([t * t, 2 * t * b, b * b + t * t * q * q,
                                2 * t * b * q * q, b * b * q * q])
        f_xi0 = np.polyval(quartic, xi0)
        for d in (1e-4, 1e-6):
            roots = np.roots(quartic - np.array([0, 0, 0, 0, f_xi0 * (1 + d)]))
            z = roots[np.argmax(roots.imag)]
            assert z.imag > 0
            assert abs(z - xi0) < 10 * math.sqrt(d)
            assert abs(_phi0_imagcut(z, x, t, P).imag) < 1e-12

    def test_phi0_at_branch_points(self):
        # nu = 0 at +-iq leaves phi0 = -t q^2, and no division by nu warns
        x, t = 0.3, 0.15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1j * P.q, -1j * P.q):
                assert _phi0_imagcut(z, x, t, P) == -t * P.q ** 2

    @pytest.mark.parametrize("x,t", [(0.0, 0.2), (0.0, 0.02), (0.9, 0.02), (0.0, 0.34)])
    def test_band_is_one_ordered_polyline(self, x, t):
        # -iq -> lower half -> z0 -> upper half -> iq, without jumps
        pts = build_band_g0(x, t, P).points
        assert pts[0] == -1j * P.q and pts[-1] == 1j * P.q
        assert pts[len(pts) // 2] == _crossings(x - P.L, t, P.q)[0]
        assert np.max(np.abs(np.diff(pts))) <= 0.05 * P.q
        worst = max(abs(_phi0_imagcut(z, x, t, P).imag)
                    for z in pts if abs(z.imag) < 0.999 * P.q)
        assert worst <= 1e-12


class TestOmega:
    @pytest.mark.parametrize("x,t", [(0.0, 0.15), (0.2, 0.1), (0.5, 0.05),
                                     (-0.3, 0.2), (0.0, 0.3), (0.6, 0.08),
                                     (0.45, 0.12), (-0.7, 0.05), (0.1, 0.25),
                                     (0.35, 0.18)])
    def test_integral_vs_dilog(self, x, t):
        # omega = -(1/pi) (int_{-inf}^{xi1} - int_{xi0}^{inf}) of the density
        xi0, xi1 = stationary_points_g0(x, t, P)
        w_int = -(_density_integral(-math.inf, xi1, P.q)
                  - _density_integral(xi0, math.inf, P.q)) / math.pi
        w_dlg = omega_phase(x, t, P, method="dilog")
        assert abs(w_int - w_dlg) < 1e-8
        assert isinstance(w_dlg, float)

    def test_even_in_x(self):
        assert abs(omega_phase(0.4, 0.1, P) - omega_phase(-0.4, 0.1, P)) < 1e-14

    def test_selfsimilar_form(self):
        # omega = F((x+L)/t) + F((x-L)/t) - omega0, F(zeta) the integral up to
        # lam_c, the root of 2 lam^2 + zeta lam + q^2 = 0 farther from 0
        q = P.q

        def F(zeta: float) -> float:
            lam_c = -zeta / 4 * (1 + math.sqrt(1 - 8 * q * q / (zeta * zeta)))
            return -_density_integral(-math.inf, lam_c, q) / math.pi

        omega0 = -(_density_integral(-math.inf, 0.0, q)
                   + _density_integral(0.0, math.inf, q)) / math.pi
        for (x, t) in ((0.2, 0.15), (0.5, 0.08)):
            w = omega_phase(x, t, P, method="dilog")
            w_ss = F((x + P.L) / t) + F((x - P.L) / t) - omega0
            assert abs(w - w_ss) < 1e-8


class TestPsiAsy:
    def test_exterior_zero(self):
        assert psi_asy_g0(2.0, 0.5, P) == 0.0

    def test_plane_wave_modulus(self):
        for (x, t) in ((0.0, 0.15), (0.4, 0.1), (-0.6, 0.05)):
            assert abs(abs(psi_asy_g0(x, t, P)) - P.q) < 1e-14

    def test_initial_time_is_the_barrier(self):
        for x in (0.0, 0.4, -0.9):
            assert psi_asy_g0(x, 0.0, P) == P.q

    def test_small_time_finite(self):
        v = psi_asy_g0(0.3, 1e-3, P)
        assert np.isfinite(v.real) and abs(abs(v) - P.q) < 1e-14

    def test_region_errors(self):
        with pytest.raises(RegionError):
            psi_asy_g0(0.0, 0.4, P)


class TestLaplaceDiagnostic:
    def test_residual_nonzero_and_stable(self):
        r1 = wkb_laplace_residual(0.2, 0.15, P, 1e-3)
        r2 = wkb_laplace_residual(0.2, 0.15, P, 5e-4)
        assert abs(r1) > 0.1
        assert abs(r1 - r2) < 0.1 * abs(r1)

    def test_arctan_surrogate_in_kernel(self):
        r = wkb_laplace_residual(0.2, 0.15, P, 5e-4, surrogate=(0.3, 0.7))
        assert abs(r) < 1e-6

    def test_stencil_domain_guard(self):
        with pytest.raises(RegionError):
            wkb_laplace_residual(0.0, first_breaking_time(0.0, P) - 1e-5, P, 1e-3)
