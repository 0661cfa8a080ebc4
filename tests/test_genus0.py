import math

import numpy as np
import pytest

from sqnls.genus0 import (
    RegionError,
    _phi0_imagcut,
    build_band_g0,
    omega_phase,
    omega_selfsimilar,
    psi_asy_g0,
    stationary_points_g0,
    wkb_laplace_residual,
)
from sqnls.phase_geometry import first_breaking_time, trace_zero_level
from sqnls.scattering import BarrierParams
from sqnls.specfun import QuadratureSpec

P = BarrierParams(1.0, 1.0, 0.1)


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

class TestBandContour:
    def test_band_connects_branch_points(self):
        band = build_band_g0(0.0, 0.2, P)
        assert abs(band.points[0] + 1j) < 1e-12
        assert abs(band.points[-1] - 1j) < 1e-12

    @pytest.mark.parametrize("x,t", [(0.0, 0.2), (0.0, 0.02), (0.9, 0.02), (0.0, 0.34)])
    def test_band_condition(self, x, t):
        # includes the near-axis small-t band and t close to the breaking time
        band = build_band_g0(x, t, P)
        worst = max(abs(_phi0_imagcut(z, x, t, P)[0].imag)
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
        # trace the unbounded branch of Im phi0 = 0 down toward the axis and
        # extrapolate the crossing; it must land on the closed-form xi0
        x, t = 0.0, 0.2
        xi0, _ = stationary_points_g0(x, t, P)
        from scipy.optimize import brentq
        phase = lambda z: _phi0_imagcut(z, x, t, P)
        y_top = 2.5
        re_seed = brentq(lambda u: phase(complex(u, y_top))[0].imag, xi0 - 1.0, xi0 + 2.0)
        got = trace_zero_level(phase, complex(re_seed, y_top),
                               lambda z: "axis" if z.imag < 0.04 else None,
                               direction=-1j, base_step=2e-3)
        tail = got.points[-30:]
        coef = np.polyfit(tail.imag ** 2, tail.real, 2)
        assert abs(np.polyval(coef, 0.0) - xi0) < 1e-6


class TestOmega:
    @pytest.mark.parametrize("x,t", [(0.0, 0.15), (0.2, 0.1), (0.5, 0.05),
                                     (-0.3, 0.2), (0.0, 0.3), (0.6, 0.08),
                                     (0.45, 0.12), (-0.7, 0.05), (0.1, 0.25),
                                     (0.35, 0.18)])
    def test_integral_vs_dilog(self, x, t):
        w_int = omega_phase(x, t, P, QuadratureSpec(1e-12), method="integral")
        w_dlg = omega_phase(x, t, P, method="dilog")
        assert abs(w_int - w_dlg) < 1e-8
        assert isinstance(w_dlg, float)

    def test_even_in_x(self):
        assert abs(omega_phase(0.4, 0.1, P) - omega_phase(-0.4, 0.1, P)) < 1e-14

    def test_selfsimilar_form(self):
        for (x, t) in ((0.2, 0.15), (0.5, 0.08)):
            w = omega_phase(x, t, P, method="dilog")
            w_ss = omega_selfsimilar(x, t, P, QuadratureSpec(1e-12))
            assert abs(w - w_ss) < 1e-8


class TestPsiAsy:
    def test_exterior_zero(self):
        assert psi_asy_g0(2.0, 0.5, P) == 0.0

    def test_plane_wave_modulus(self):
        for (x, t) in ((0.0, 0.15), (0.4, 0.1), (-0.6, 0.05)):
            assert abs(abs(psi_asy_g0(x, t, P)) - P.q) < 1e-14

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
