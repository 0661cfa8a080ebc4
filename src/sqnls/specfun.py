"""Special functions, scalar solvers and complex-path quadrature kernels.

Everything here is self-contained and needs numpy only: complete elliptic
integrals (one AGM pass), the real dilogarithm, the genus-1 theta sum, the
branch square root `cut_sqrt` cut on a straight segment with its boundary
values, the exact distance between segments, the Brent root finder `brentq`,
and an adaptive Gauss-Legendre quadrature over complex polylines and rays.

`brentq` follows scipy's `scipy.optimize.brentq` operation for operation,
so it takes the same iterates.

The quadrature has one adaptive loop, `adaptive_panels`. It bisects panels
and asks a function of the panel bounds for each panel's 15-point
Gauss-Legendre sums. `adaptive_gl` hands it the node rule, which evaluates
an integrand on the panels' nodes (`gl_panels`); a caller with a cheaper
closed form of the sums, such as scattering's real Cauchy kernel, hands it
those sums instead, and keeps the same heap, error rule and stop on a
non-finite panel. Every integrand is an array function. It takes a 1-D
array of n nodes and returns one value per node, shape (n,), or a row of k
values per node, shape (n, k). All k components share the panels, and each
keeps its own error sum, so each meets the absolute tolerance by itself.
`quad_path` and `quad_ray_to_inf` map polylines and rays onto it; they
return a complex scalar for an (n,) integrand and a (k,) array otherwise.
Every polyline segment takes the square-root substitution u -> u^2 at both
of its ends, which absorbs a half-integer power singularity at any vertex,
and a ray takes it at its finite end.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureConvergenceError", "complete_elliptic",
           "complete_elliptic_m1", "ellipk", "ellipe", "dilog",
           "theta_sum", "cut_sqrt", "cut_sqrt_boundary", "segment_distance", "brentq",
           "gl_panels", "adaptive_panels", "adaptive_gl", "quad_path", "quad_ray_to_inf"]

_LN_INV_EPS = math.log(1e16)


class QuadratureConvergenceError(RuntimeError):
    """Tolerance not reached within the panel budget.

    Carries the best estimate and its error bound so callers can decide
    whether to accept a degraded result.
    """

    def __init__(self, message: str, estimate: complex, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute tolerance and panel budget for a path integral."""

    target_abs_tol: float = 1e-10
    max_subdivisions: int = 400

    def __post_init__(self):
        if not (self.target_abs_tol > 0):
            raise ValueError("target_abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


# ---------------------------------------------------------------------------
# complete elliptic integrals
# ---------------------------------------------------------------------------

def _check_m(m: float) -> None:
    if not (isinstance(m, (int, float)) and math.isfinite(m)):
        raise ValueError("m must be a finite real number")


def complete_elliptic_m1(m1: float) -> tuple[float, float]:
    """(K, E) at the complementary parameter m1 = 1 - m, from one AGM pass.

    The pass starts from b0 = sqrt(m1), so K and E keep their relative
    precision as m -> 1, where m1 carries digits that 1 - m has lost.
    E = K (1 - sum 2^(n-1) c_n^2) with c0^2 = m (Abramowitz-Stegun 17.6;
    DLMF 19.8). Requires 0 < m1 <= 1; K diverges logarithmically at m1 = 0.
    """
    a, b = 1.0, math.sqrt(m1)
    e_sum, pow2 = 0.5 * (1.0 + m1), 1.0  # 1 - c0^2 / 2
    for _ in range(64):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        e_sum -= 0.5 * pow2 * c * c
    k = math.pi / (2.0 * a)
    return k, k * e_sum


def complete_elliptic(m: float) -> tuple[float, float]:
    """Return (K(m), E(m)); rejects m >= 1 since K diverges there."""
    _check_m(m)
    if m < 0 or m >= 1:
        raise ValueError("K(m) requires 0 <= m < 1 (K diverges logarithmically at m = 1)")
    return complete_elliptic_m1(1.0 - m)


def ellipk(m: float) -> float:
    """K(m) by the arithmetic-geometric mean, parameter convention m = k^2."""
    return complete_elliptic(m)[0]


def ellipe(m: float) -> float:
    """E(m) by the AGM with the c_n correction sum; defined for 0 <= m <= 1."""
    _check_m(m)
    if m < 0 or m > 1:
        raise ValueError("E(m) requires 0 <= m <= 1")
    if m == 1.0:
        return 1.0
    return complete_elliptic_m1(1.0 - m)[1]


# ---------------------------------------------------------------------------
# real dilogarithm
# ---------------------------------------------------------------------------

def _dilog_series(x: float) -> float:
    # |x| <= 1/2: plain power series sum_{k>=1} x^k / k^2
    total = 0.0
    term = 1.0
    for k in range(1, 80):
        term *= x
        inc = term / (k * k)
        total += inc
        if abs(inc) < 1e-18:
            break
    return total


def dilog(x: float) -> float:
    """Real dilogarithm Li2(x) for x <= 1.

    Series on |x| <= 1/2; the reflection Li2(x) + Li2(1-x) = pi^2/6
    - ln(x) ln(1-x) on (1/2, 1); the Landen transform on (-1, -1/2); and the
    inversion Li2(x) = -Li2(1/x) - pi^2/6 - ln(-x)^2 / 2 for x < -1.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ValueError("dilog argument must be a finite real number")
    x = float(x)
    if x > 1.0:
        raise ValueError("dilog is real only for x <= 1")
    if x == 1.0:
        return math.pi ** 2 / 6
    if x == 0.0:
        return 0.0
    if x < -1.0:
        return -dilog(1.0 / x) - math.pi ** 2 / 6 - 0.5 * math.log(-x) ** 2
    if x < -0.5:
        # Landen: Li2(x) = -Li2(x/(x-1)) - ln(1-x)^2 / 2, maps into (0, 1/2)
        return -_dilog_series(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    if x <= 0.5:
        return _dilog_series(x)
    return math.pi ** 2 / 6 - math.log(x) * math.log1p(-x) - dilog(1.0 - x)


# ---------------------------------------------------------------------------
# genus-1 theta sum
# ---------------------------------------------------------------------------

def theta_sum(w, H: float):
    """Theta(w; H) = sum_n exp(n^2 H / 2 - n w), H < 0.

    w is a point or an array of points, all summed to one truncation index
    N: the smallest integer with N^2 |H|/2 - N max(|Re w|, |H|) >= ln(1e16)
    over the points, which makes the tail geometric with first omitted term
    below 1e-16 of the n = 0 term. A point gives a numpy complex scalar.
    """
    if not math.isfinite(H) or H >= 0:
        raise ValueError("theta_sum requires H < 0 (series diverges otherwise)")
    w = np.asarray(w, dtype=complex)
    if not np.all(np.isfinite(w)):
        raise ValueError("theta_sum requires finite w")
    big = max(float(np.max(np.abs(w.real))), abs(H))
    n_trunc = int(math.ceil((big + math.sqrt(big * big + 2.0 * abs(H) * _LN_INV_EPS)) / abs(H))) + 2
    if n_trunc > 2_000_000:
        raise QuadratureConvergenceError(
            f"theta truncation index {n_trunc} exceeds hard cap", 0.0, math.inf
        )
    n = np.arange(-n_trunc, n_trunc + 1)
    return np.sum(np.exp(0.5 * H * n * n - n * w[..., None]), axis=-1)[()]


# ---------------------------------------------------------------------------
# straight cuts and segments
# ---------------------------------------------------------------------------

def cut_sqrt(z, c: complex, d: complex):
    """(z - c) sqrt(1 - (d / (z - c))^2), the root of (z - c)^2 - d^2 ~ z - c at infinity.

    z is a point or an array of points. The principal square root is cut
    where 1 - (d / (z - c))^2 is real and negative, which is exactly the
    segment c +- d, so the value jumps across that segment and is continuous
    everywhere off it. At the midpoint z = c it takes the value i d, the
    limit from the side z - c = +i d. A point gives a numpy complex scalar.
    """
    w = np.asarray(z, dtype=complex) - c
    mid = w == 0
    w = np.where(mid, 1.0, w)
    return np.where(mid, 1j * d, w * np.sqrt(1.0 - (d / w) ** 2))[()]


def cut_sqrt_boundary(s, d: complex):
    """cut_sqrt(c + s d, c, d) on its cut, -1 <= s <= 1, as the limit from the right of d.

    The right of d is where Im((z - c) / d) < 0, and the limit there is
    -i d sqrt(1 - s^2). s may be an array; |s| past 1 by rounding gives 0.
    """
    return -1j * d * np.sqrt(np.maximum(1.0 - s * s, 0.0))


def segment_distance(a0: complex, a1: complex, b0: complex, b1: complex) -> float:
    """Least distance between the segments [a0, a1] and [b0, b1]: 0 where they cross or touch.

    A segment may have zero length, so segment_distance(z, z, b0, b1) is the
    distance of the point z from [b0, b1].
    """
    da, db, w = a1 - a0, b1 - b0, b0 - a0
    cross = da.real * db.imag - da.imag * db.real
    if cross != 0:
        # a0 + s da = b0 + r db by Cramer's rule
        s = (w.real * db.imag - w.imag * db.real) / cross
        r = (w.real * da.imag - w.imag * da.real) / cross
        if 0.0 <= s <= 1.0 and 0.0 <= r <= 1.0:
            return 0.0
    # segments that do not cross are nearest at an endpoint of one of them
    return min(_point_segment_distance(z, p, d)
               for z, p, d in ((a0, b0, db), (a1, b0, db), (b0, a0, da), (b1, a0, da)))


def _point_segment_distance(z: complex, p: complex, d: complex) -> float:
    # distance of z from the segment p + [0, 1] d
    n = d.real * d.real + d.imag * d.imag
    s = min(1.0, max(0.0, ((z - p) * d.conjugate()).real / n)) if n else 0.0
    return abs(z - p - s * d)


# ---------------------------------------------------------------------------
# scalar root
# ---------------------------------------------------------------------------

_BRENT_RTOL = 4 * 2.220446049250313e-16  # four machine epsilons, the least rtol allowed
_BRENT_MAXITER = 100


def _not_nan(f, x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _BRENT_RTOL) -> float:
    """A root of the real function f in the bracket [a, b], by Brent's method.

    A line-by-line port of the C routine behind scipy.optimize.brentq
    (Zeros/brentq.c): inverse quadratic or secant steps guarded by
    bisection, stopping once the bracket half-width is below
    (xtol + rtol |x|) / 2. It evaluates f at the same points and returns the
    same float. Raises ValueError when f(a) and f(b) have the same sign or f
    returns NaN, and RuntimeError when 100 steps (scipy's default maxiter) do
    not converge.
    """
    xtol, rtol = float(xtol), float(rtol)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")
    xpre, xcur = float(a), float(b)
    fpre = _not_nan(f, xpre)
    fcur = _not_nan(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _not_nan(f, xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre over complex polylines
# ---------------------------------------------------------------------------

# the 15-point Gauss-Legendre rule, equal bit for bit to numpy's leggauss(15)
# but written out, so importing the module does not start LAPACK
_GL_HALF_NODES = (0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
                  0.7244177313601701, 0.8482065834104272, 0.9372733924007058,
                  0.9879925180204854)
_GL_HALF_WEIGHTS = (0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
                    0.13957067792615444, 0.10715922046717141, 0.0703660474881084,
                    0.030753241996117203)
_GL_NODES = np.array([-v for v in _GL_HALF_NODES[::-1]] + [0.0] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(_GL_HALF_WEIGHTS[::-1] + (0.2025782419255613,) + _GL_HALF_WEIGHTS)
# halved, so that a panel's width times them is its half-width times the
# rule's, to the bit: halving is exact
_GL_NODES_HALVED = 0.5 * _GL_NODES
_GL_WEIGHTS_HALVED = 0.5 * _GL_WEIGHTS


def gl_panels(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 15-point Gauss-Legendre rule on the panels [lo[i], hi[i]].

    lo and hi are arrays of P bounds. Both results have shape (P, 15): row
    i holds panel i's nodes and its weights, the rule's weights times the
    panel's half-width.
    """
    width = (hi - lo)[:, None]
    return (0.5 * (lo + hi))[:, None] + width * _GL_NODES_HALVED, width * _GL_WEIGHTS_HALVED


def _gl_sums(f, lo, hi) -> np.ndarray:
    """15-point Gauss-Legendre sums of f over the panels [lo[i], hi[i]], from one call of f."""
    nodes, weights = gl_panels(lo, hi)
    vals = np.asarray(f(nodes.ravel()))
    vals = vals.reshape(*nodes.shape, *vals.shape[1:])
    return np.einsum("pj,pj...->p...", weights, vals)


def adaptive_gl(f, a: float, b: float, tol: float, max_panels: int) -> np.ndarray:
    """Adaptive 15-point Gauss-Legendre integral of f over [a, b].

    f maps a 1-D array of n nodes to values of shape (n,) or (n, k); the
    result has shape () or (k,). This is adaptive_panels with the node rule
    _gl_sums, so each bisection evaluates f on 60 new nodes: 45 + 60
    (panels - 1) in all.
    """
    return adaptive_panels(lambda lo, hi: _gl_sums(f, lo, hi), a, b, tol, max_panels)


def adaptive_panels(sums, a: float, b: float, tol: float, max_panels: int) -> np.ndarray:
    """Adaptive integral over [a, b] from panel sums.

    sums(lo, hi) takes the bounds of P panels and returns, with shape (P,)
    or (P, k), each panel's 15-point Gauss-Legendre sum (gl_panels gives the
    nodes and weights); the result has shape () or (k,). A panel's estimate
    is the sum of the rules on its two halves, and its error |whole - left -
    right| is kept per component. The panel whose largest component error is
    largest comes off a heap and is bisected until every component's error
    sum is at most tol. A child's whole-panel rule is its parent's
    half-panel rule, so each bisection asks sums for 4 new quarter panels.

    A panel with a non-finite value stops the loop at once: the
    QuadratureConvergenceError names that panel and carries the estimate and
    error sum of the finite panels before it (NaN and inf if it is [a, b]).
    numpy's divide, invalid and overflow warnings are silenced while the
    panels are summed: that check raises the typed error in their place.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = 0.5 * (a + b)
        whole, left, right = sums(np.array([a, a, m]), np.array([b, m, b]))
        if not np.all(np.isfinite([whole, left, right])):
            raise _non_finite(a, b, np.full(whole.shape, np.nan + 0j), np.full(whole.shape, np.inf))
        bounds = [(a, b)]
        halves = np.empty((max_panels, 2) + whole.shape, dtype=complex)
        errs = np.empty((max_panels,) + whole.shape)
        halves[0] = left, right
        errs[0] = err = np.abs(whole - left - right)
        heap = [(-float(err.max()), 0)]
        n = 1
        while True:
            total_err = errs[:n].sum(axis=0)
            if (total_err <= tol).all():
                return halves[:n].sum(axis=(0, 1))
            if n >= max_panels:
                raise QuadratureConvergenceError(
                    f"adaptive quadrature: error {total_err.max():.3e} > tol {tol:.3e} "
                    f"after {n} panels",
                    halves[:n].sum(axis=(0, 1))[()],
                    total_err[()],
                )
            row = heapq.heappop(heap)[1]
            lo, hi = bounds[row]
            m = 0.5 * (lo + hi)
            ql, qr = 0.5 * (lo + m), 0.5 * (m + hi)
            quarters = sums(np.array([lo, ql, m, qr]), np.array([ql, m, qr, hi]))
            # one sum is finite unless a value is (or the sum overflows)
            if not math.isfinite(abs(quarters.sum())):
                finite = np.isfinite(quarters.reshape(2, -1)).all(axis=1)
                if not finite.all():
                    bad_lo, bad_hi = (lo, m) if not finite[0] else (m, hi)
                    raise _non_finite(bad_lo, bad_hi, halves[:n].sum(axis=(0, 1)), total_err)
            # the children [lo, m] (row) and [m, hi] (n) at once: each one's
            # whole-panel rule is a half-panel rule of the parent
            err = np.abs(halves[row] - quarters[0::2] - quarters[1::2])
            halves[row], halves[n] = quarters[:2], quarters[2:]
            errs[row], errs[n] = err
            bounds[row] = lo, m
            bounds.append((m, hi))
            err_left, err_right = err.reshape(2, -1).max(axis=1).tolist()
            heapq.heappush(heap, (-err_left, row))
            heapq.heappush(heap, (-err_right, n))
            n += 1


def _non_finite(lo: float, hi: float, estimate: np.ndarray,
                error_bound: np.ndarray) -> QuadratureConvergenceError:
    return QuadratureConvergenceError(
        f"adaptive quadrature: non-finite integrand value on panel [{float(lo)!r}, {float(hi)!r}]",
        estimate[()], error_bound[()])


def _per_node(vals: np.ndarray, w) -> np.ndarray:
    # values of shape (n,) or (n, k) times a per-node factor of shape (n,)
    return vals * np.reshape(w, np.shape(w) + (1,) * (vals.ndim - 1))


def _segment_quad(f, z0: complex, z1: complex, tol: float, max_panels: int) -> np.ndarray:
    """Integrate the array integrand f along the straight segment z0 -> z1.

    The segment splits at its midpoint zm into the halves z0 + (zm - z0) u^2
    and z1 + (zm - z1) u^2, u in [0, 1]. The substitution u -> u^2 at each
    end removes half-integer powers there, +1/2 and -1/2 alike, and after
    its extra Jacobian factor u it also regularizes u log u terms; at a
    regular end it only clusters the nodes. The halves run as two components
    of one adaptive pass, so f sees both halves' nodes in one call; each half
    is held to tol / 2, and the pass has the two halves' panel budgets,
    2 max_panels.
    """
    zm = z0 + 0.5 * (z1 - z0)
    ends = np.array([z0, z1])
    h = np.array([zm - z0, zm - z1])
    # dz = 2 h u du, and the right half runs z1 -> zm, against the segment
    jac = 2.0 * np.array([zm - z0, z1 - zm])

    def halves(u: np.ndarray) -> np.ndarray:
        # values of shape (n, 2) or (n, 2, k): half i of node j at [j, i]
        u = u[:, None]
        vals = np.asarray(f((ends + h * u * u).ravel()))
        vals = vals.reshape(u.size, 2, *vals.shape[1:])
        w = jac * u
        return vals * w.reshape(w.shape + (1,) * (vals.ndim - 2))

    try:
        return adaptive_gl(halves, 0.0, 1.0, 0.5 * tol, 2 * max_panels).sum(axis=0)
    except QuadratureConvergenceError as err:
        raise QuadratureConvergenceError(
            str(err), np.sum(err.estimate, axis=0)[()],
            np.sum(err.error_bound, axis=0)[()]) from None


def quad_path(integrand, path, spec: QuadratureSpec):
    """Integrate an array integrand along a polyline.

    integrand maps a 1-D complex array of n nodes to values of shape (n,)
    or (n, k); the result is a numpy complex scalar (a subclass of complex)
    or a (k,) array, and every component meets the tolerance on its own.
    path is a sequence of complex vertices; consecutive vertices are joined
    by straight segments, each split at its midpoint with the square-root
    substitution at both of its ends (_segment_quad). A half-integer power
    singularity may therefore sit at any vertex, the first, the last or one
    in between.
    """
    pts = [complex(p) for p in path]
    if len(pts) < 2:
        raise ValueError("path needs at least two vertices")
    nseg = len(pts) - 1
    tol_per = spec.target_abs_tol / nseg
    total = 0.0 + 0.0j
    for i in range(nseg):
        total = total + _segment_quad(integrand, pts[i], pts[i + 1], tol_per,
                                      spec.max_subdivisions)
    return total


def quad_ray_to_inf(integrand, start: complex, direction: complex, spec: QuadratureSpec):
    """Integrate an array integrand from `start` to infinity along `direction`.

    integrand takes arrays, and the result has the shape, as in quad_path. The
    semi-infinite ray is mapped to [0, 1) by lambda = start + u/(1-u) *
    direction, so the integrand must decay at least like |lambda|^-2 to keep
    the transformed integrand bounded at u = 1. The square-root substitution
    u -> v^2 at the finite end, as at every polyline end, absorbs a
    half-integer power singularity there.
    """
    d = complex(direction)
    if d == 0:
        raise ValueError("direction must be nonzero")
    d /= abs(d)

    def g(u: np.ndarray) -> np.ndarray:
        return _per_node(integrand(start + d * (u / (1.0 - u))), d / (1.0 - u) ** 2)

    return adaptive_gl(lambda v: _per_node(g(v * v), 2.0 * v), 0.0, 1.0,
                       spec.target_abs_tol, spec.max_subdivisions)
