"""Pre-break asymptotics inside the barrier support (and the quiescent exterior).

In the plane-wave window the wave form is q exp(i(q^2 t/eps + omega)) with a
slow phase correction omega. The wave form takes omega from its closed
dilogarithm form; omega_phase also evaluates the two half-line integrals of
the reflection weight that the closed form sums, on request. The module also
carries the finite band of Im phi0 = 0, each of its points a root of one real
quartic, and the finite-difference diagnostic showing omega fails the
rescaled Laplace equation (while the arctan family satisfies it exactly).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .phase_geometry import first_breaking_time
from .scattering import BarrierParams, kappa_weight, nu_imag_cut, reflection_sq
from .specfun import QuadratureSpec, dilog, quad_ray_to_inf

__all__ = ["RegionError", "BandContour", "stationary_points_g0", "build_band_g0", "omega_phase",
           "psi_asy_g0", "wkb_laplace_residual"]


class RegionError(ValueError):
    """(x, t) lies outside the region this evaluator covers."""


def _crossings(b: float, t: float, q: float) -> tuple[float, float]:
    """(z0, z1) = -b/(4t) (1 -+ sqrt(1 - 8 t^2 q^2 / b^2)): Im(2 nu (tz + b) - t q^2) = 0 on R.

    Before breaking, 0 < t < |b| / (2 sqrt2 q), a finite arc joining +-iq
    crosses R at z0 and an infinite branch crosses it at z1.
    """
    surd = math.sqrt(max(1.0 - 8.0 * t * t * q * q / (b * b), 0.0))
    return -b / (4 * t) * (1.0 - surd), -b / (4 * t) * (1.0 + surd)


def stationary_points_g0(x: float, t: float, p: BarrierParams) -> tuple[float, float]:
    """Real stationary points (xi0, xi1) in S1: the larger crossings at b = x -+ L."""
    if abs(x) >= p.L:
        raise RegionError("|x| must be < L")
    if t <= 0:
        raise RegionError("t must be positive")
    if t >= first_breaking_time(x, p):
        raise RegionError(f"t = {t} is at or past the first breaking time")
    return _crossings(x - p.L, t, p.q)[1], _crossings(x + p.L, t, p.q)[1]


# ---------------------------------------------------------------------------
# band contour
# ---------------------------------------------------------------------------

def _phi0_imagcut(z: complex, x: float, t: float, p: BarrierParams) -> complex:
    # phi0 with the straight nu-branch; its zero level set is branch independent
    b = x - p.L
    return 2 * nu_imag_cut(z, p.q) * (t * z + b) - t * p.q ** 2


@dataclass
class BandContour:
    """The finite band of Im phi0 = 0 as one polyline -iq -> z0 -> iq."""

    points: np.ndarray


# band points strictly between a branch point and the real crossing
_BAND_HALF = 99


def build_band_g0(x: float, t: float, p: BarrierParams) -> BandContour:
    """The finite band of Im phi0 = 0, from -iq through its real crossing z0 to +iq.

    On the band 2 nu (t z + b) = c is real, so every band point is a root of
    the real quartic f(z) = 4 (t z + b)^2 (z^2 + q^2) = c^2. On R, f has a
    local minimum at z0, a local maximum at the other crossing and a double
    zero at -b/t, so for each c^2 in (0, f(z0)) exactly one root lies in
    Im z > 0. It runs from iq (c = 0) to z0 (c^2 = f(z0)), and the lower half
    of the band is its mirror image. Sampling c^2 = f(z0) s (2 - s) on a
    uniform grid in s makes the root leave iq like s and meet z0 like 1 - s.
    Raises RegionError unless 0 < t < T1(x), and ValueError for |x| >= L.
    """
    if not 0 < t < first_breaking_time(x, p):
        raise RegionError("band exists only for 0 < t < T1(x)")
    q = p.q
    b = x - p.L
    z0 = _crossings(b, t, q)[0]
    s = np.arange(1, _BAND_HALF + 1) / (_BAND_HALF + 1)
    c2 = 4 * (t * z0 + b) ** 2 * (z0 * z0 + q * q) * s * (2 - s)
    # companion matrices of f(z) - c^2 over its leading coefficient 4 t^2
    comp = np.zeros((s.size, 4, 4))
    comp[:, 1:, :3] = np.eye(3)
    comp[:, 0, :3] = -2 * b / t, -(b * b / (t * t) + q * q), -2 * b * q * q / t
    comp[:, 0, 3] = c2 / (4 * t * t) - (b * q / t) ** 2
    roots = np.linalg.eigvals(comp)
    upper = roots[np.arange(s.size), np.argmax(roots.imag, axis=1)]
    return BandContour(np.concatenate(([-1j * q], upper.conj(), [z0], upper[::-1], [1j * q])))


# ---------------------------------------------------------------------------
# the slow phase omega
# ---------------------------------------------------------------------------

def omega_phase(x: float, t: float, p: BarrierParams, quad: QuadratureSpec | None = None,
                method: str = "dilog") -> float:
    """Slow phase correction omega(x, t) on S1.

    method 'integral': -(1/pi) (int_{-inf}^{xi1} - int_{xi0}^{inf}) of
    log(1 + |r0|^2)/nu with the real-axis branch of nu. method 'dilog':
    -(1/2 pi) [Li2(r0(xi0)^2) + Li2(r0(xi1)^2)], where r0(xi)^2 = -|r0(xi)|^2
    on the real axis. The two agree to quadrature tolerance.
    """
    xi0, xi1 = stationary_points_g0(x, t, p)
    q = p.q
    if method == "dilog":
        return -(dilog(-reflection_sq(xi0, q)) + dilog(-reflection_sq(xi1, q))) / (2 * math.pi)
    if method != "integral":
        raise ValueError("method must be 'integral' or 'dilog'")
    quad = quad or QuadratureSpec(target_abs_tol=1e-11)
    # log(1 + |r0|^2) / nu at the ray's real nodes, nu = sign(lam) sqrt(lam^2 + q^2)
    f = lambda lam: (-2.0 * math.pi * kappa_weight(lam.real, q)
                     / np.copysign(np.hypot(lam.real, q), lam.real))
    left = quad_ray_to_inf(f, xi1, -1.0, quad)   # = -int_{-inf}^{xi1}
    right = quad_ray_to_inf(f, xi0, +1.0, quad)  # = +int_{xi0}^{inf}
    return float(((left + right) / math.pi).real)


def psi_asy_g0(x: float, t: float, p: BarrierParams) -> complex:
    """Leading-order wave form in S0 (zero) and S1 (nearly plane wave).

    RegionError at |x| = L, for t < 0 and (from omega_phase) for t >= T1(x).
    """
    if abs(x) > p.L:
        return 0.0 + 0.0j
    if not abs(x) < p.L:
        raise RegionError(f"x = {x} is on the region boundary |x| = L or is NaN")
    if not t >= 0:
        raise RegionError("t must be >= 0")
    if t == 0:
        return complex(p.q)
    omega = omega_phase(x, t, p, method="dilog")
    return p.q * cmath.exp(1j * (p.q ** 2 * t / p.eps + omega))


# ---------------------------------------------------------------------------
# Laplace-residual diagnostic
# ---------------------------------------------------------------------------

def wkb_laplace_residual(x: float, t: float, p: BarrierParams, h: float,
                         surrogate: tuple[float, float] | None = None) -> float:
    """Central-difference estimate of omega_tt + q^2 omega_xx at (x, t).

    For the true omega the value stays bounded away from zero as h -> 0.
    Passing surrogate = (c1, c2) replaces omega by the self-similar family
    c1 + c2 (arctan(zeta+/q) + arctan(zeta-/q)), the exact kernel of the
    rescaled Laplace operator, for which the same stencil returns ~0.
    """
    if surrogate is None:
        w = lambda xx, tt: omega_phase(xx, tt, p, method="dilog")
    else:
        c1, c2 = surrogate

        def w(xx: float, tt: float) -> float:
            zp = (xx + p.L) / tt
            zm = (xx - p.L) / tt
            return 2 * c1 + c2 * (math.atan(zp / p.q) + math.atan(zm / p.q))

    for (xx, tt) in ((x + h, t), (x - h, t), (x, t + h), (x, t - h), (x, t)):
        if abs(xx) >= p.L or tt <= 0 or tt >= first_breaking_time(xx, p):
            raise RegionError("5-point stencil leaves the plane-wave region")
    w_tt = (w(x, t + h) - 2 * w(x, t) + w(x, t - h)) / (h * h)
    w_xx = (w(x + h, t) - 2 * w(x, t) + w(x - h, t)) / (h * h)
    return w_tt + p.q ** 2 * w_xx
