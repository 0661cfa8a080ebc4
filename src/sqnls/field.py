"""Region classification, grid sampling and the breaking-curve table.

The space-time plane splits into S0 (|x| > L), S1 (before the first
breaking time), S2 (between the breaking curves) and the boundaries and
beyond, which no leading-order form covers. Numbers go out with 17
significant digits, so identical configurations give identical text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genus0 import RegionError, psi_asy_g0
from .genus1 import RealityError, modulation_constants, psi_asy_g1, solve_endpoint
from .nls_direct import GridField, evolve, validation_config
from .phase_geometry import PinchPointError, first_breaking_time, second_breaking_time
from .scattering import BarrierParams
from .specfun import QuadratureConvergenceError

__all__ = ["Region", "classify", "psi_asymptotic", "sample_grid", "breaking_curves"]

_BOUNDARY_RTOL = 1e-12
_POINT_ERRORS = (QuadratureConvergenceError, RealityError, RegionError)


@dataclass(frozen=True)
class Region:
    """Point classification with the breaking times that bound it."""

    label: str  # 'S0' | 'S1' | 'S2' | 'beyond_scope'
    T1: float | None = None
    T2: float | None = None


_T2_CACHE: dict[tuple, float | None] = {}


def _t2_cached(x: float, p: BarrierParams) -> float | None:
    """Memoized T2(x); None where the double-root search gives up.

    The search gives up at x = 0, where the two breaking curves pinch
    together (T2(x) -> T1(0) as x -> 0) and the oscillatory window has zero
    width, and within ~3.7e-6 L of |x| = L, where mu at T2 falls below the
    endpoint solver's floor; both raise PinchPointError and read as no T2.
    Any other failure propagates.
    """
    key = (p.q, p.L, p.eps, round(abs(x), 12))
    if key not in _T2_CACHE:
        try:
            _T2_CACHE[key] = second_breaking_time(abs(x), p)
        except PinchPointError:
            _T2_CACHE[key] = None
    return _T2_CACHE[key]


def classify(x: float, t: float, p: BarrierParams) -> Region:
    """Assign (x, t) to S0 / S1 / S2 / beyond_scope.

    Boundary points (|x| = L or t on a breaking curve) are beyond_scope:
    the asymptotic description holds on compacts strictly inside each
    region. T2 is computed lazily and cached per x.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    scale_x = max(1.0, p.L)
    if abs(abs(x) - p.L) <= _BOUNDARY_RTOL * scale_x:
        return Region("beyond_scope")
    if abs(x) > p.L:
        return Region("S0")
    t1 = first_breaking_time(x, p)
    if abs(t - t1) <= _BOUNDARY_RTOL * max(1.0, t1):
        return Region("beyond_scope", T1=t1)
    if t < t1:
        return Region("S1", T1=t1)
    t2 = _t2_cached(x, p)
    if t2 is None or t >= t2 - _BOUNDARY_RTOL * max(1.0, t2):
        return Region("beyond_scope", T1=t1, T2=t2)
    return Region("S2", T1=t1, T2=t2)


def psi_asymptotic(x: float, t: float, p: BarrierParams,
                   region: Region | None = None) -> complex:
    """Dispatch the leading-order wave form by region; raises on beyond_scope."""
    reg = region if region is not None else classify(x, t, p)
    if reg.label == "S0":
        return 0.0 + 0.0j
    if reg.label == "S1":
        return psi_asy_g0(x, t, p)
    if reg.label == "S2":
        mu = (p.L - abs(x)) / (2.0 * t)
        state = solve_endpoint(mu, p.q)
        mods = modulation_constants(state.alpha, abs(x), t, p)
        return psi_asy_g1(abs(x), t, p, state, mods)
    raise RegionError(f"point ({x}, {t}) is beyond the covered regions")


def sample_grid(x_range: tuple[float, float], t_range: tuple[float, float],
                resolution: tuple[int, int], p: BarrierParams, mode: str) -> dict:
    """Evaluate fields on a rectangular (x, t) grid.

    Returns a dict with keys 'x', 't', 'regions' and 'errors', and the
    per-mode entries 'asymptotic' and/or 'numeric' (lists of GridField, one
    per t; 'both' mode gives both, and a caller compares them point by
    point). 'errors' lists the per-point failures: a
    QuadratureConvergenceError, RealityError or RegionError at one point is
    recorded there and leaves that point empty; any other error propagates.
    The numeric fields come from the validation_config solver run,
    interpolated linearly onto the grid.
    """
    if mode not in ("asymptotic", "numeric", "both"):
        raise ValueError("mode must be 'asymptotic', 'numeric' or 'both'")
    nx, nt = resolution
    if nx < 2 or nt < 2:
        raise ValueError("resolution must be >= 2 per axis")
    xs = np.linspace(x_range[0], x_range[1], nx)
    ts = np.linspace(t_range[0], t_range[1], nt)
    regions = [[classify(float(x), float(t), p) for x in xs] for t in ts]
    out: dict = {"x": xs, "t": ts, "regions": regions, "errors": []}

    if mode in ("asymptotic", "both"):
        fields = []
        for i, t in enumerate(ts):
            vals = np.full(nx, np.nan + 1j * np.nan, dtype=complex)
            for j, x in enumerate(xs):
                reg = regions[i][j]
                if reg.label == "beyond_scope":
                    continue  # null marker, never a guess
                try:
                    vals[j] = psi_asymptotic(float(x), float(t), p, reg)
                except _POINT_ERRORS as exc:
                    out["errors"].append({"x": float(x), "t": float(t), "error": repr(exc)})
            fields.append(GridField(xs.copy(), vals, float(t),
                                    region_labels=[r.label for r in regions[i]]))
        out["asymptotic"] = fields

    if mode in ("numeric", "both"):
        t_final = float(ts[-1])
        raw = evolve(validation_config(p, t_final, [float(t) for t in ts]))
        fields = []
        for i, snap in enumerate(raw):
            re = np.interp(xs, snap.x_nodes, snap.values.real)
            im = np.interp(xs, snap.x_nodes, snap.values.imag)
            fields.append(GridField(xs.copy(), re + 1j * im, float(ts[i]),
                                    region_labels=[r.label for r in regions[i]]))
        out["numeric"] = fields

    return out


def _fmt(v: float | None) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.17g}"


def breaking_curves(x_min: float, x_max: float, nx: int, p: BarrierParams) -> list[str]:
    """CSV lines x,T1,T2 over a grid; T2 empty where the search fails."""
    lines = ["x,T1,T2"]
    for x in np.linspace(x_min, x_max, nx):
        x = float(x)
        try:
            t1 = first_breaking_time(x, p)
        except ValueError:
            lines.append(f"{_fmt(x)},,")
            continue
        t2 = _t2_cached(x, p)
        lines.append(f"{_fmt(x)},{_fmt(t1)},{_fmt(t2)}")
    return lines
