"""Post-break (oscillatory) asymptotics: endpoint system, periods, theta form.

The moving band endpoint alpha depends on (x, t) only through the
self-similar variable mu = -(x-L)/(2t) and solves a pair of elliptic
integral equations. Every modulation constant is an Abelian integral over
the band cut [iq, alpha] (closed-form boundary values), the segment
alpha* -> alpha or the ray iq -> i inf, and each contour takes one pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .phase_geometry import big_r, big_s, rho1_real_roots
from .scattering import BarrierParams, _dist_to_polyline, chi_batch
from .specfun import (QuadratureSpec, brentq, complete_elliptic, complete_elliptic_m1, cut_sqrt,
                      quad_path, quad_ray_to_inf, theta_sum)

__all__ = [
    "RealityError",
    "EndpointState",
    "ModulationParams",
    "elliptic_parameter",
    "alpha_from_m",
    "mu_from_m",
    "endpoint_mu_floor",
    "solve_endpoint",
    "endpoint_residuals",
    "char_speed",
    "period_integrals",
    "abel_map",
    "modulation_constants",
    "psi_asy_g1",
]

# boundary side of R entering oriented-contour integrals: the plus side is
# the left of the overall -iq -> +iq orientation of the cut system, which in
# the local coordinate u = Im((z-c)/d) of each half-cut is u < 0 on the upper
# band (traversed alpha -> iq) and u > 0 on the lower one (-iq -> alpha*)
_BAND1_SIDE = -1.0
_BAND2_SIDE = +1.0


class RealityError(RuntimeError):
    """A period or modulation constant that must be real came out complex.

    Raised when the imaginary part exceeds the relative tolerance of its
    check, which points at a broken branch or path convention upstream.
    `value` is the offending complex number.
    """

    def __init__(self, message: str, value: complex):
        super().__init__(message)
        self.value = value


@dataclass(frozen=True)
class EndpointState:
    """Solved band endpoint at one value of the self-similar variable.

    The residuals |F_M| and |F_G| of the endpoint system are lazy: they are
    evaluated at the reference point t = 1 on the ray of constant mu (so
    x - L = -2 mu) the first time either is read, once per state.
    """

    mu: float
    m: float
    alpha: complex
    q: float

    @cached_property
    def _residuals(self) -> tuple[float, float]:
        f_m, f_g = endpoint_residuals(self.alpha, -2.0 * self.mu, 1.0, self.q)
        return abs(f_m), abs(f_g)

    @property
    def res_moment(self) -> float:
        """|F_M|, the moment residual at t = 1."""
        return self._residuals[0]

    @property
    def res_gap(self) -> float:
        """|F_G|, the gap residual at t = 1."""
        return self._residuals[1]


@dataclass(frozen=True)
class ModulationParams:
    """Slowly varying constants entering the theta-function wave form."""

    Omega: float
    eta: float
    H: float
    A_inf: complex
    T0: float
    Y0: float
    c_nu: complex
    c_tau: complex
    tau1_b_period: float
    reality_defect: float = 0.0  # worst |Im| discarded when storing the reals

    def __post_init__(self):
        if self.H >= 0:
            raise ValueError("the b-period H must be negative")


def elliptic_parameter(alpha: complex, q: float) -> float:
    """m = 1 - |alpha - iq|^2 / |alpha + iq|^2, in [0, 1] for alpha in C+."""
    return 1.0 - abs(alpha - 1j * q) ** 2 / abs(alpha + 1j * q) ** 2


# Taylor coefficients of A(m) = ((2-m)E - 2(1-m)K)/(m^2 E) at m = 0, from the
# hypergeometric series of K and E; the terms left out add < 1e-17 at m = 0.03
_A_TAYLOR = (3 / 8, 3 / 16, 111 / 1024, 141 / 2048, 1533 / 32768, 2193 / 65536,
             836103 / 33554432, 1286193 / 67108864, 16254219 / 1073741824,
             26249379 / 2147483648)


def _endpoint(m1: float, q: float) -> tuple[complex, float]:
    """(alpha, mu) at the complementary parameter m1 = 1 - m, without cancellation.

    alpha = q (sqrt(4A - (1+mA)^2) + i m A) with A = ((2-m)E - 2(1-m)K)/(m^2 E),
    and mu = (2 a^2 - b^2 + q^2) / (2 a) from the moment relation, alpha = a + ib.
    Near m = 1 the radicand and q^2 - b^2 both vanish like m1; they are
    written as m1 times factors that do not cancel, through
    D = (A - 1)/m1 = ((3 - m1)E - 2K)/(m^2 E):
      4A - (1+mA)^2 = m1 (A - m1 D^2/(1 + sqrt A)^2)(2 sqrt A + 1 + mA),
      q^2 - b^2     = q^2 m1 (1 - D + m1 D)(1 + mA).
    """
    m = 1.0 - m1
    if m < 0.03:
        # near its removable singularity at m = 0 A's closed form cancels like 1e-16 / m^2
        A = 0.0
        for c in reversed(_A_TAYLOR):
            A = A * m + c
        D = (A - 1.0) / m1
    else:
        K, E = complete_elliptic_m1(m1)
        D = ((3.0 - m1) * E - 2.0 * K) / (m * m * E)
        A = 1.0 + m1 * D
    s_a = math.sqrt(A)
    rad = m1 * (A - m1 * D * D / (1.0 + s_a) ** 2) * (2.0 * s_a + 1.0 + m * A)
    if rad < -1e-12:
        raise ValueError(f"negative radicand {rad} in the endpoint formula")
    a = q * math.sqrt(max(rad, 0.0))
    b2_gap = q * q * m1 * (1.0 - D + m1 * D) * (1.0 + m * A)
    return complex(a, q * m * A), (2.0 * a * a + b2_gap) / (2.0 * a)


def alpha_from_m(m: float, q: float) -> complex:
    """Band endpoint alpha = q (sqrt(4A - (1+mA)^2) + i m A) from the parameter m."""
    if not (0 < m < 1):
        raise ValueError("m must lie in (0, 1)")
    return _endpoint(1.0 - m, q)[0]


def mu_from_m(m: float, q: float) -> float:
    """Self-similar variable produced by the endpoint at parameter m.

    From the moment relation: mu = (2 a^2 - b^2 + q^2) / (2 a) with
    alpha = a + ib.
    """
    if not (0 < m < 1):
        raise ValueError("m must lie in (0, 1)")
    return _endpoint(1.0 - m, q)[1]


# the m bracket that solve_endpoint inverts mu on, in v = -log(1 - m); mu falls with m
_M_BRACKET = (1e-14, 1.0 - 1e-14)


def endpoint_mu_floor(q: float) -> float:
    """Smallest mu that solve_endpoint inverts, mu(1 - 1e-14) ~ 1.85e-6 q.

    Below it the root m lies past the top of the m bracket, and
    solve_endpoint raises RuntimeError.
    """
    return mu_from_m(_M_BRACKET[1], q)


def _v_from_mu(mu: float, q: float) -> float:
    """v = -log(1 - m) at mu by brentq on _endpoint(exp(-v)): v resolves m near 1."""
    if not (0 < mu < math.sqrt(2.0) * q):
        raise ValueError(f"mu = {mu} outside the oscillatory window (0, sqrt2 q)")
    v_lo, v_hi = (-math.log1p(-m) for m in _M_BRACKET)
    f = lambda v: _endpoint(math.exp(-v), q)[1] - mu
    f_lo, f_hi = f(v_lo), f(v_hi)
    if f_lo * f_hi > 0:
        raise RuntimeError(f"no sign change for mu = {mu}: [{f_lo}, {f_hi}]")
    return brentq(f, v_lo, v_hi, xtol=1e-15, rtol=8.9e-16)


def solve_endpoint(mu: float, q: float) -> EndpointState:
    """Invert mu in v = -log(1 - m) and package the endpoint alpha(m).

    No quadrature runs here: the residuals of the moment and gap functions
    at the reference point t = 1 are computed when the returned state's
    res_moment or res_gap is first read.
    """
    m1 = math.exp(-_v_from_mu(mu, q))
    return EndpointState(mu=mu, m=1.0 - m1, alpha=_endpoint(m1, q)[0], q=q)


def endpoint_residuals(alpha: complex, x_minus_l: float, t: float, q: float
                       ) -> tuple[complex, complex]:
    """Moment and gap functions (F_M, F_G) at a trial endpoint.

    F_M is the closed quadratic form; F_G integrates S(lam) times the linear
    factor along the straight segment from alpha* to alpha.
    """
    a = complex(alpha)
    ac = a.conjugate()
    f_m = t / 4.0 * (3 * a * a + 2 * a * ac + 3 * ac * ac + 4 * q * q) \
        + x_minus_l / 2.0 * (a + ac)
    if abs(a.imag) < 1e-14:
        # degenerate real endpoint: S integrand collapses, integral vanishes
        return f_m, 0.0 + 0.0j

    def integrand(lam: np.ndarray) -> np.ndarray:
        return big_s(lam, a, q) * (t * (2 * lam + a + ac) + x_minus_l)

    f_g = quad_path(integrand, [ac, a], QuadratureSpec(target_abs_tol=1e-12))
    return f_m, f_g


def char_speed(alpha: complex, q: float) -> complex:
    """Characteristic speed of the moving Riemann invariant pair (alpha, iq)."""
    a = complex(alpha)
    ac = a.conjugate()
    if abs(a - 1j * q) < 1e-12 * q:
        raise ZeroDivisionError("speed degenerates at alpha = iq (K(1) diverges)")
    m = elliptic_parameter(a, q)
    if a.imag == 0:
        return -a  # m = 0: the elliptic term carries the factor alpha - alpha* = 0
    K, E = complete_elliptic(m)
    denom = (a - 1j * q) * K + (1j * q - ac) * E
    if abs(denom) < 1e-14 * q:
        raise ZeroDivisionError("vanishing denominator in the speed formula")
    return -0.5 * (a + ac) - (a - ac) * (a - 1j * q) * K / denom


# ---------------------------------------------------------------------------
# cut geometry and boundary-value integrals
# ---------------------------------------------------------------------------

def _cut1(alpha: complex, q: float) -> tuple[complex, complex]:
    # segment [iq, alpha] as midpoint and half-vector; s = -1 at iq, +1 at alpha
    return 0.5 * (1j * q + alpha), 0.5 * (alpha - 1j * q)


def _cut2(alpha: complex, q: float) -> tuple[complex, complex]:
    # segment [-iq, alpha*]; s = -1 at -iq, +1 at alpha*
    c1, d1 = _cut1(alpha, q)
    return c1.conjugate(), d1.conjugate()


def _r_on_cut(s: np.ndarray, c: complex, d: complex, c_other: complex, d_other: complex,
              u_sign: float) -> tuple[np.ndarray, np.ndarray]:
    """(z, R_side) at parameters s in (-1, 1) on the cut c +- d.

    The boundary value of the local factor is u_sign * i * d * sqrt(1-s^2);
    the opposite cut's factor is single-valued there.
    """
    z = c + s * d
    loc = u_sign * 1j * d * np.sqrt(np.maximum(1.0 - s * s, 0.0))
    return z, loc * cut_sqrt(z, c_other, d_other)


def _cut_integral(g, alpha: complex, q: float, quad: QuadratureSpec) -> np.ndarray:
    """integral over s in (-1, 1) of g(z(s), R_side(z(s))) dz along band 1.

    g takes arrays of n points z and boundary values R_side (the
    _BAND1_SIDE value) and returns shape (n,) or (n, k); the integral then
    has shape () or (k,), each component to the tolerance of quad.
    Orientation is increasing s (iq -> alpha). Integrands with 1/R blow up
    like an inverse square root at both ends, which the endpoint
    substitution absorbs.
    """
    c1, d1 = _cut1(alpha, q)
    c2, d2 = _cut2(alpha, q)

    def param_integrand(s: np.ndarray) -> np.ndarray:
        z, r_side = _r_on_cut(s.real, c1, d1, c2, d2, _BAND1_SIDE)
        return g(z, r_side) * d1

    return quad_path(param_integrand, [-1.0, 1.0], quad)


def _b_cycle(num, alpha: complex, q: float, quad: QuadratureSpec) -> complex:
    """b-period of num(z)/R(z) dz as a collapsed two-sided integral over [iq, alpha].

    A loop winding once around the cut equals the jump integral
    2 * int_{iq->alpha} num / R_side with the _BAND1_SIDE boundary value.
    """
    return 2.0 * _cut_integral(lambda z, r: num(z) / r, alpha, q, quad)


def seg_integral_inv_r(alpha: complex, q: float, quad: QuadratureSpec) -> complex:
    """integral_{alpha*}^{alpha} dz / R(z) along the straight segment.

    Matches 2i K(m) / |alpha + iq| (elliptic reduction of the endpoint
    Jacobian); period_integrals takes its a-period from it.
    """
    return quad_path(lambda z: 1.0 / big_r(z, alpha, q), [alpha.conjugate(), alpha], quad)


def _normalize(seg_inv_r: complex, b_inv_r: complex) -> tuple[complex, complex, complex]:
    """(H, a_period, c_nu) from int_{alpha*}^{alpha} dz/R and the b-period of dz/R.

    H is returned complex: callers store its real part and report the imaginary one.
    """
    a_period = -2.0 * seg_inv_r  # alpha -> alpha* orientation
    c_nu = 2j * math.pi / a_period
    H_val = c_nu * b_inv_r
    if abs(H_val.imag) > 1e-8 * max(1.0, abs(H_val)):
        raise RealityError(f"b-period came out non-real: {H_val}", H_val)
    if H_val.real > 0:
        raise RuntimeError(f"b-period positive ({H_val.real}); orientation conventions broken")
    return H_val, a_period, c_nu


def period_integrals(alpha: complex, q: float, quad: QuadratureSpec | None = None
                     ) -> tuple[float, complex, complex, complex]:
    """(H, a_period, A_inf, c_nu) of the normalized holomorphic differential.

    a_period is realized as twice the straight segment alpha -> alpha*;
    c_nu = 2 pi i / a_period; H = c_nu * b-cycle; A_inf integrates the
    normalized differential from iq to infinity up the imaginary axis.
    """
    if quad is None:
        quad = QuadratureSpec(target_abs_tol=1e-11)
    if abs(alpha - 1j * q) < 1e-12 * q:
        raise ValueError("alpha = iq: the surface degenerates")
    H_val, a_period, c_nu = _normalize(seg_integral_inv_r(alpha, q, quad),
                                       _b_cycle(lambda z: 1.0 + 0j, alpha, q, quad))
    a_inf = c_nu * quad_ray_to_inf(lambda z: 1.0 / big_r(z, alpha, q), 1j * q, 1j, quad,
                                   sqrt_start=True)
    return H_val.real, a_period, a_inf, c_nu


def abel_map(z: complex, alpha: complex, c_nu: complex, q: float,
             quad: QuadratureSpec) -> complex:
    """A(z) = int_{iq}^{z} c_nu / R on a cut-avoiding path.

    Straight segment when it clears both cuts; otherwise a detour through a
    waypoint with large positive real part (the cuts live in Re <= Re alpha).
    Every segment takes the square-root substitution at both ends, so z may
    be a branch point.
    """
    z = complex(z)
    start = 1j * q
    path = [start, z]
    if not _path_clears_cuts(path, alpha, q):
        w = max(alpha.real, z.real) + 2.0 * (q + abs(alpha)) + 0.5j * (q + z.imag)
        path = [start, w, z]
        if not _path_clears_cuts(path, alpha, q):
            raise ValueError(f"no cut-avoiding two-leg path from iq to {z}")
    return c_nu * quad_path(lambda lam: 1.0 / big_r(lam, alpha, q), path, quad)


def _path_clears_cuts(path: list[complex], alpha: complex, q: float) -> bool:
    cuts = [(1j * q, alpha), (alpha.conjugate(), -1j * q)]
    for a0, a1 in zip(path[:-1], path[1:]):
        for b0, b1 in cuts:
            if _segments_too_close(a0, a1, b0, b1, 0.02 * q):
                return False
    return True


def _segments_too_close(a0: complex, a1: complex, b0: complex, b1: complex,
                        clearance: float) -> bool:
    # shared endpoints (paths starting at iq or ending at alpha*) are fine
    shared = [p for p in (a0, a1) if min(abs(p - b0), abs(p - b1)) < 1e-12]
    n = 12
    worst = math.inf
    for i in range(n + 1):
        s = i / n
        pa = a0 + s * (a1 - a0)
        if shared and min(abs(pa - sh) for sh in shared) < 0.15 * abs(a1 - a0):
            continue
        worst = min(worst, _dist_to_polyline(pa, [b0, b1]))
    return worst < clearance


# ---------------------------------------------------------------------------
# the full set of modulation constants
# ---------------------------------------------------------------------------

def _band_pass(a: complex, x_minus_l: float, t: float, xi0: float, xi1: float, q: float,
               quad: QuadratureSpec, chi_quad: QuadratureSpec) -> np.ndarray:
    """Every band integral of modulation_constants, in one pass over the cut parameter.

    The first three columns are band 1's, oriented iq -> alpha as in
    _cut_integral: the Omega loop (R/(z^2+q^2)) (t (2z + a + a*) + x - L),
    1/R and num2/R with num2 = z (z - Re alpha). The last four are the slope
    and moment integrals of the p0 weight j = (log term) - 2 (chi(z, xi1) +
    chi(z, xi0)): the oriented integrals of j / R and (z - Re alpha) j / R
    along band 1 (alpha -> iq) and band 2 (-iq -> alpha*). Band 2 is band
    1's mirror image, so each node s of the shared cut parameter maps to one
    point on each band, and the chi transforms run once per xi over all of
    them. The pass has both bands' panel budgets, 2 quad.max_subdivisions,
    which the both-ended segment doubles again.
    """
    ac = a.conjugate()
    c1, d1 = _cut1(a, q)
    c2, d2 = _cut2(a, q)
    quad = replace(quad, max_subdivisions=2 * quad.max_subdivisions)
    # band 1 runs against increasing s in the p0 columns: sign -1
    scale = np.array([-d1, d2])

    def terms(s: np.ndarray) -> np.ndarray:
        z1, r1 = _r_on_cut(s.real, c1, d1, c2, d2, _BAND1_SIDE)
        z2, r2 = _r_on_cut(s.real, c2, d2, c1, d1, _BAND2_SIDE)
        loop = (r1 / (z1 * z1 + q * q)) * (t * (2 * z1 + a + ac) + x_minus_l)
        band1 = np.stack((loop, 1.0 / r1, z1 * (z1 - a.real) / r1), axis=1) * d1
        z = np.concatenate((z1, z2))
        logterm = np.concatenate((np.log(2.0 * (z1 + 1j * q) / q),
                                  np.log(q / (2.0 * (z2 - 1j * q)))))
        chi = chi_batch(z, xi1, q, chi_quad) + chi_batch(z, xi0, q, chi_quad)
        j_over_r = ((logterm - 2.0 * chi) / np.concatenate((r1, r2))).reshape(2, s.size)
        z_rel = z.reshape(2, s.size) - a.real
        p0 = np.stack((j_over_r, z_rel * j_over_r), axis=2) * scale[:, None, None]
        return np.concatenate((band1, p0.transpose(1, 0, 2).reshape(s.size, 4)), axis=1)

    return quad_path(terms, [-1.0, 1.0], quad)


def modulation_constants(alpha: complex, x: float, t: float, p: BarrierParams) -> ModulationParams:
    """All slow constants of the oscillatory wave form at one (x, t).

    Assumes alpha solves the endpoint system at mu = -(x-L)/(2t). Reality of
    Omega, eta, T0, Y0 and H is enforced to 1e-8 (the p0 slope and Y0 to
    1e-7) and violations raise RealityError, since they indicate a broken
    branch or path convention upstream. The worst imaginary part discarded
    is reported as reality_defect.
    """
    quad = QuadratureSpec(target_abs_tol=1e-10)
    chi_quad = QuadratureSpec(target_abs_tol=1e-11)
    q, L = p.q, p.L
    a = complex(alpha)
    ac = a.conjugate()
    mu = -(x - L) / (2.0 * t)
    xi0 = mu - a.real
    roots = rho1_real_roots(a, xi0, t, L, q)
    if not roots:
        raise ValueError("rho1 has no real roots here: (x, t) is past the second breaking time")
    xi1 = roots[0]
    defect = 0.0

    def real(name: str, v: complex, tol: float = 1e-8) -> float:
        # the real part of v, once its imaginary part is checked and recorded
        nonlocal defect
        if abs(v.imag) > tol * max(1.0, abs(v)):
            raise RealityError(f"{name} not real: {v}", v)
        defect = max(defect, float(abs(v.imag)))
        return float(v.real)

    # one adaptive pass per contour, each integrand a column; (num2 + c_tau)/R
    # with num2 = z^2 - Re(alpha) z has a zero a-period. The band pass carries
    # band 1's Omega loop and b-periods of 1/R and num2/R, and the p0 weights
    band = _band_pass(a, x - L, t, xi0, xi1, q, quad, chi_quad)
    # Omega: real part of the collapsed loop integral around the upper band
    omega = real("gap-jump constant", -2.0 * band[0])

    # the ray iq -> i inf carries rho (eta), 1/R (A_inf) and num2/R - 1 (Y0)
    def ray_terms(z: np.ndarray) -> np.ndarray:
        # rho = (2tz + x - L) - S (t (2z + a + a*) + x - L), 1 - S as (1 - S^2)/(1 + S):
        # the direct form cancels terms of size 2t|z| to O(1/|z|^2), and the ray map amplifies it
        s_val = big_s(z, a, q)
        one_minus_s = ((2.0 * a.real * z + q * q - abs(a) ** 2)
                       / ((z * z + q * q) * (1.0 + s_val)))
        rho = (2.0 * t * z + (x - L)) * one_minus_s - s_val * t * (a + ac)
        inv_r = 1.0 / big_r(z, a, q)
        return np.stack((rho, inv_r, z * (z - a.real) * inv_r - 1.0), axis=1)

    ray = quad_ray_to_inf(ray_terms, 1j * q, 1j, quad, sqrt_start=True)
    # eta = -theta0(iq) + 2 int_inf^iq rho, theta0(iq) = 2t (iq)^2 + 2 (x - L) iq
    eta = real("band-jump constant", 2 * t * q * q - 2j * (x - L) * q - 2.0 * ray[0])

    # the segment alpha* -> alpha carries 1/R, (z - Re alpha)/R and num2/R; it
    # and the gap path alpha* -> xi0 -> alpha enclose no cut, so they agree
    def seg_terms(z: np.ndarray) -> np.ndarray:
        z_rel = z - a.real
        return np.stack((np.ones_like(z), z_rel, z * z_rel), axis=1) / big_r(z, a, q)[:, None]

    gap_inv_r, gap_rel, seg_num2 = quad_path(seg_terms, [ac, a], quad)

    H_val, _, c_nu = _normalize(gap_inv_r, 2.0 * band[1])
    c_tau = -seg_num2 / gap_inv_r
    b_num = 2.0 * (band[2] + c_tau * band[1])

    # slopes of the real linear polynomials in the essential singularity of s;
    # expanding the Cauchy integrals of s0, s1 at infinity gives
    # p' = (1/2 pi i) * (oriented weight integral), real since the gap
    # integral of 1/R is imaginary and the band integrals pair up
    p1_slope = real("p1 slope", -1j * omega / (2 * math.pi) * gap_inv_r)
    tau1_b = real("tau1 b-period", p1_slope * b_num)

    # p0: band pieces with the j weight, gap pieces with the constant -i pi/2
    p0_slope = real("p0 slope", (band[3] + band[5] - 0.5j * math.pi * gap_inv_r) / (2 * math.pi),
                    1e-7)
    p0_const = (band[4] + band[6] - 0.5j * math.pi * gap_rel) / (2 * math.pi) + math.pi / 4.0

    # Y0 = p0_const + p0' (iq - int_{iq}^{inf} ((num2 + c_tau)/R - 1)), up the
    # imaginary axis: no cut lies in Re z > 0, Im z > q, since Im alpha < q
    resid = ray[2] + c_tau * ray[1]
    y0 = real("Y0", p0_const + p0_slope * (1j * q - resid), 1e-7)
    # T0 and the tau1 consistency check against -Omega
    t0 = real("T0", p0_slope * b_num)
    return ModulationParams(Omega=omega, eta=eta, H=real("b-period", H_val), A_inf=c_nu * ray[1],
                            T0=t0, Y0=y0, c_nu=c_nu, c_tau=c_tau, tau1_b_period=tau1_b,
                            reality_defect=defect)


def psi_asy_g1(x: float, t: float, p: BarrierParams, state: EndpointState,
               mods: ModulationParams) -> complex:
    """Leading-order one-phase wave form from solved endpoint and constants."""
    q, eps = p.q, p.eps
    H = mods.H
    fast = math.fmod(mods.Omega / eps, 2.0 * math.pi)
    arg_shift = 1j * (mods.T0 - fast)
    two_a = 2.0 * mods.A_inf
    th_num0 = theta_sum(0.0, H)
    th_den0 = theta_sum(two_a, H)
    th_num1 = theta_sum(two_a + arg_shift, H)
    th_den1 = theta_sum(arg_shift, H)
    for name, val in (("Theta(2A)", th_den0), ("Theta(iT)", th_den1)):
        if abs(val) < 1e-12:
            raise ZeroDivisionError(
                f"{name} vanished; upstream reality violation (zeros need complex T)")
    amp = q - state.alpha.imag
    return amp * (th_num0 / th_den0) * (th_num1 / th_den1) * cmath.exp(-2j * mods.Y0)
