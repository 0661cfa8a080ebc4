"""Exact forward-scattering data of the square barrier.

The barrier is exactly solvable: the transmission/reflection coefficients
are combinations of trigonometric functions of 2 L nu / eps with
nu = sqrt(z^2 + q^2). All operations below are closed-form evaluations plus
root finding; no ODE integration is ever performed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specfun import (QuadratureSpec, adaptive_panels, brentq, cut_sqrt, cut_sqrt_boundary,
                      gl_panels, segment_distance)

__all__ = ["BarrierParams", "BranchCut", "BranchBoundaryError", "ConnectionOverflowError",
           "nu_branch", "nu_imag_cut",
           "scattering_data", "eigenvalues", "eigenvalue_phase", "connection_coefficient",
           "reflection_sq", "kappa_weight", "chi_integral", "chi_batch"]


class BranchBoundaryError(ValueError):
    """Evaluation point sits on a branch cut, where only one-sided limits exist."""


class ConnectionOverflowError(OverflowError):
    """c_k = exp(log_factor) scaled lies beyond the float range.

    scaled is exp(-2 L Im z_k / eps) c_k and log_factor is 2 L Im z_k / eps.
    """

    def __init__(self, scaled: complex, log_factor: float):
        super().__init__(f"c_k = exp({log_factor:.6g}) * ({scaled:.6g}) "
                         "lies beyond the float range")
        self.scaled = scaled
        self.log_factor = log_factor


@dataclass(frozen=True)
class BarrierParams:
    """Barrier amplitude q, half-width L, and dispersion parameter eps.

    eps must stay a guard distance away from the eigenvalue-birth values
    eps_n = 4 L q / ((2n+1) pi) where a zero of a(z) crosses the origin:
    |eps - eps_n| >= 1e-9 eps_n.
    """

    q: float
    L: float
    eps: float

    def __post_init__(self):
        for name in ("q", "L", "eps"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a finite positive real")
        # 2 L q / eps = (n + 1/2) pi exactly at a birth value
        ratio = 2 * self.L * self.q / (self.eps * math.pi)
        n_near = round(ratio - 0.5)
        if n_near >= 0:
            eps_n = 4 * self.L * self.q / ((2 * n_near + 1) * math.pi)
            if abs(self.eps - eps_n) < 1e-9 * eps_n:
                raise ValueError(
                    f"eps = {self.eps} is within the guard distance of the "
                    f"eigenvalue-birth value eps_{n_near} = {eps_n}"
                )


@dataclass(frozen=True)
class BranchCut:
    """Branch cut of nu = sqrt(z^2 + q^2) from -iq to +iq.

    kind 'imaginary_segment' is the straight cut; 'curved_polyline' carries
    an ordered list of vertices from -iq to +iq (conjugation-symmetric as a
    point set, e.g. a traced band contour).
    """

    kind: str
    polyline: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("imaginary_segment", "curved_polyline"):
            raise ValueError(f"unknown cut kind {self.kind!r}")
        if self.kind == "curved_polyline":
            if self.polyline is None or len(self.polyline) < 2:
                raise ValueError("curved cut needs a polyline with >= 2 vertices")

    def validate_endpoints(self, q: float):
        if self.kind != "curved_polyline":
            return
        p = self.polyline
        if abs(p[0] + 1j * q) > 1e-9 * q or abs(p[-1] - 1j * q) > 1e-9 * q:
            raise ValueError("cut polyline must run from -iq to +iq")


# ---------------------------------------------------------------------------
# branches of nu
# ---------------------------------------------------------------------------

def nu_imag_cut(z, q: float):
    """sqrt(z^2 + q^2) cut on the imaginary segment [-iq, iq], ~ z at infinity.

    z is a point or an array of points, none of them 0.
    """
    if np.any(np.asarray(z) == 0):
        raise BranchBoundaryError("z = 0 lies on the imaginary-segment cut")
    return cut_sqrt(z, 0.0, 1j * q)


def _point_in_polygon(z: complex, verts: Sequence[complex]) -> bool:
    """Even-odd ray crossing; the polygon closes from the last vertex to the first."""
    x, y = z.real, z.imag
    inside = False
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i].real, verts[i].imag
        x2, y2 = verts[(i + 1) % n].real, verts[(i + 1) % n].imag
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x_cross > x:
                inside = not inside
    return inside


def nu_branch(z: complex, cut: BranchCut, q: float) -> complex:
    """Branch of sqrt(z^2 + q^2) cut along `cut`, normalized nu ~ z at infinity.

    z within 1e-12 q of the cut raises BranchBoundaryError. A curved cut's
    branch is the imaginary-segment branch with its sign flipped inside the
    polygon that the cut closes with the segment [-iq, iq].
    """
    z = complex(z)
    if cut.kind == "imaginary_segment":
        if abs(z.real) < 1e-12 * q and abs(z.imag) < q * (1 + 1e-12):
            raise BranchBoundaryError("z on the imaginary-segment cut")
        return nu_imag_cut(z, q)

    cut.validate_endpoints(q)
    pts = cut.polyline
    if min(segment_distance(z, z, a, b) for a, b in zip(pts[:-1], pts[1:])) < 1e-12 * q:
        raise BranchBoundaryError("z on the cut polyline")
    sign = -1.0 if _point_in_polygon(z, pts) else 1.0
    if z.real == 0 and abs(z.imag) < q:
        # the open segment [-iq, iq] closes the polygon, and the crossing test
        # counts it to its right: take the segment branch's value from there
        return sign * complex(cut_sqrt_boundary(z.imag / q, 1j * q))
    return sign * nu_imag_cut(z, q)


# ---------------------------------------------------------------------------
# scattering coefficients
# ---------------------------------------------------------------------------

def _csinc(w: complex) -> complex:
    if abs(w) < 1e-4:
        w2 = w * w
        return 1.0 - w2 / 6.0 + w2 * w2 / 120.0
    return cmath.sin(w) / w


def scattering_data(z: complex, p: BarrierParams) -> tuple[complex, complex, complex]:
    """Exact (a, b, r) of the single barrier at spectral point z.

    a and b are entire; their values do not depend on the branch given to
    nu because only even combinations enter. Raises if z is (numerically)
    an eigenvalue, where r has a pole.
    """
    z = complex(z)
    q, L, eps = p.q, p.L, p.eps
    k = 2 * L / eps
    # any branch; the product of z -+ iq keeps nu's relative precision near z = +-iq
    nu = cmath.sqrt((z - 1j * q) * (z + 1j * q))
    phi = 2.0 * L * nu / eps
    if abs(phi.imag) <= 30.0:
        # trig form, smooth through nu = 0: a = (cos phi - i k z sinc phi) exp(2iLz/eps)
        sinc = _csinc(phi)
        a = (cmath.cos(phi) - 1j * z * k * sinc) * cmath.exp(2j * L * z / eps)
        b = -q * k * sinc
    else:
        # exponential split keeps the combined exponents moderate
        e1 = cmath.exp(2j * L * (z - nu) / eps)
        e2 = cmath.exp(2j * L * (z + nu) / eps)
        a = ((nu + z) / (2 * nu)) * e1 + ((nu - z) / (2 * nu)) * e2
        b = q * (cmath.exp(-2j * L * nu / eps) - cmath.exp(2j * L * nu / eps)) / (2j * nu)
    if abs(a) < 1e-300:
        raise ZeroDivisionError(f"a({z}) = 0 to machine precision: z is an eigenvalue, r has a pole")
    return a, b, b / a


# ---------------------------------------------------------------------------
# eigenvalues on i(0, q)
# ---------------------------------------------------------------------------

def eigenvalue_phase(y: float, p: BarrierParams) -> float:
    """Phase whose half-integer-pi crossings locate the zeros of a(iy).

    On the imaginary axis a(iy) is proportional to q cos(Phi(y)) with
    Phi = 2 L s/eps - asin(y/q), s = sqrt((q - y)(q + y)), strictly
    decreasing in y; the factored s keeps its relative precision near y = q.
    """
    q = p.q
    s = math.sqrt(max((q - y) * (q + y), 0.0))
    return 2 * p.L * s / p.eps - math.asin(min(1.0, max(-1.0, y / q)))


def eigenvalues(p: BarrierParams) -> list[float]:
    """All y in (0, q) with a(iy) = 0, ascending.

    The bracketing function s cos(2Ls/eps) + y sin(2Ls/eps) equals
    q cos(Phi(y)), and Phi is monotone, so every root is isolated by one
    half-integer multiple of pi; each is refined by brentq.
    """
    q, L, eps = p.q, p.L, p.eps
    phi_top = 2 * L * q / eps  # Phi(0)
    roots = []
    j = 0
    while (j + 0.5) * math.pi < phi_top:
        target = (j + 0.5) * math.pi
        y_j = brentq(lambda y: eigenvalue_phase(y, p) - target, 0.0, q, xtol=1e-15, rtol=8.9e-16)
        roots.append(y_j)
        j += 1
    roots.sort()
    for y_prev, y_next in zip(roots[:-1], roots[1:]):
        if y_next - y_prev < 1e-12 * q:
            raise RuntimeError("two eigenvalues closer than 1e-12 q: the brackets collapsed")
    return roots


def connection_coefficient(z_k: complex, p: BarrierParams) -> complex:
    """c_k = b(z_k) / a'(z_k) at an eigenvalue z_k = iy, 0 < y < q.

    There a(iy) = exp(-k y) (q / s) cos(Phi) and b(iy) = -q sin(k s) / s,
    with k = 2L/eps, s = sqrt(q^2 - y^2) and Phi = eigenvalue_phase(y), so
    c_k = i sin(k s) exp(k y) / (sin(Phi) Phi') with Phi' = -(k y + 1) / s.
    Phi' < 0 makes every zero simple; z_k is one when the Newton step
    cos(Phi) / (sin(Phi) Phi') is at most 1e-10 q. Where c_k lies beyond
    the float range, ConnectionOverflowError carries the scaled coefficient
    exp(-k y) c_k.
    """
    z_k = complex(z_k)
    q, y = p.q, z_k.imag
    if z_k.real != 0 or not 0 < y < q:
        raise ValueError(f"z_k = {z_k} is off the eigenvalue segment i(0, q)")
    k = 2 * p.L / p.eps
    s = math.sqrt((q - y) * (q + y))
    phase = eigenvalue_phase(y, p)
    denom = math.sin(phase) * -(k * y + 1.0) / s  # sin(Phi) Phi'
    if abs(math.cos(phase)) > 1e-10 * q * abs(denom):
        raise ValueError(f"Newton step {math.cos(phase) / denom:.2e}: z_k is not an eigenvalue")
    scaled = 1j * math.sin(k * s) / denom
    shift = k * y
    # exp(shift) in two halves: it overflows before c_k does when |scaled| < 1
    try:
        grow = math.exp(0.5 * shift)
    except OverflowError:
        grow = math.inf
    c_k = scaled * grow * grow
    if not cmath.isfinite(c_k):
        raise ConnectionOverflowError(scaled, shift)
    return c_k


# ---------------------------------------------------------------------------
# spectral weights kappa, chi, delta
# ---------------------------------------------------------------------------

def reflection_sq(s, q: float):
    """|r0(s)|^2 = q^2 / (|s| + sqrt(s^2 + q^2))^2 at real s, a point or an array of points."""
    d = abs(s) + np.hypot(s, q)
    return q * q / (d * d)


def kappa_weight(s, q: float):
    """-(1/2 pi) log(1 + |r0(s)|^2) at real s, a point or an array of points.

    Complex s raises TypeError: chi integrates kappa along the real axis only.
    """
    s = np.asarray(s)
    if np.iscomplexobj(s):
        raise TypeError("kappa_weight takes real s only")
    return (np.log1p(reflection_sq(s, q)) / (-2 * math.pi))[()]


def chi_batch(z, a: float, q: float, quad: QuadratureSpec | None = None) -> np.ndarray:
    """chi(z_j, a) = i * integral_{-inf}^{a} kappa(s) / (s - z_j) ds for an array z.

    One adaptive rule on the ray s = a - u / (1 - u), u in [0, 1), serves
    every z_j: kappa is evaluated once per ray node, and the shared panels
    are refined until each chi(z_j, a) meets quad.target_abs_tol on its own.
    kappa is real on the ray, so with the real node weights c (rule weight,
    Jacobian and kappa) and dr = s - Re z_j a panel's sum is
    sum c / (s - z_j) = sum c dr / (dr^2 + Im z_j^2) + i Im z_j sum c /
    (dr^2 + Im z_j^2): two real matrix products, no complex division. No z_j
    may lie on the ray, where chi has two one-sided limits.
    """
    z = np.asarray(z, dtype=complex)
    if quad is None:
        quad = QuadratureSpec(target_abs_tol=1e-11)
    if np.any((z.imag == 0) & (z.real < a)):
        raise BranchBoundaryError("real z below a lies on chi's ray")
    y = z.imag
    # Re z_j and Im z_j^2 at every node of the 4 panels a bisection asks for,
    # so that no elementwise step of the sums broadcasts, which costs numpy
    # one inner loop per node
    x_rows, y2_rows = rows = np.empty((2, 4, 15, z.size))
    rows[0], rows[1] = z.real, y * y

    def cauchy_sums(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        u, w = gl_panels(lo, hi)
        v = 1.0 - u
        s = a - u / v
        c = (w * kappa_weight(s, q) / (v * v))[:, None, :]
        p = lo.size
        dr = np.repeat(s, z.size).reshape(p, 15, z.size)
        dr -= x_rows[:p]
        inv = dr * dr
        inv += y2_rows[:p]
        np.reciprocal(inv, out=inv)
        dr *= inv
        out = np.empty((p, z.size), dtype=complex)
        out.real = (c @ dr)[:, 0]
        out.imag = (c @ inv)[:, 0] * y
        return out

    return 1j * adaptive_panels(cauchy_sums, 0.0, 1.0, quad.target_abs_tol, quad.max_subdivisions)


def chi_integral(z: complex, a: float, q: float, quad: QuadratureSpec | None = None) -> complex:
    """chi(z, a) = i * integral_{-inf}^{a} kappa(s) / (s - z) ds: chi_batch at one point."""
    return complex(chi_batch(np.array([complex(z)]), a, q, quad)[0])
