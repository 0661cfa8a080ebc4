"""Region classification, grid sampling and the table of every command.

The space-time plane splits into S0 (|x| > L), S1 (before the first
breaking time), S2 (between the breaking curves) and the boundaries and
beyond, which no leading-order form covers. Each command of the command
line is one function here that returns its output lines: numbers go out
with 17 significant digits, so identical configurations give identical
text. A command that cannot make its table whole raises TableError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .genus0 import RegionError, psi_asy_g0
from .genus1 import RealityError, modulation_constants, psi_asy_g1
from .nls_direct import evolve, validation_config
from .phase_geometry import (EndpointRangeError, PinchPointError, endpoint_ray_breaking_time,
                             first_breaking_time, second_breaking_time, solve_endpoint)
from .scattering import BarrierParams
from .specfun import QuadratureConvergenceError

__all__ = ["Region", "TableError", "EmptyPatchError", "classify", "psi_asymptotic", "sample_grid",
           "classify_table", "breaking_curves", "field_table", "validate_table", "endpoint_table"]

_BOUNDARY_RTOL = 1e-12
_POINT_ERRORS = (QuadratureConvergenceError, RealityError, RegionError, EndpointRangeError)


@dataclass(frozen=True)
class Region:
    """Point classification with the breaking times that bound it."""

    label: str  # 'S0' | 'S1' | 'S2' | 'beyond_scope'
    T1: float | None = None
    T2: float | None = None

    def __post_init__(self):
        if not all(v is None or math.isfinite(v) for v in (self.T1, self.T2)):
            raise ValueError(f"breaking times ({self.T1}, {self.T2}) must be finite or None")


class TableError(RuntimeError):
    """A command's table could not be made whole; lines holds what of it was made."""

    def __init__(self, message: str, lines: list[str] | None = None):
        super().__init__(message)
        self.lines = lines or []


class EmptyPatchError(TableError):
    """A validate patch holds no grid node; raised before any solver runs."""


_T2_CACHE: dict[tuple, float | None] = {}


def _t2_cached(x: float, p: BarrierParams) -> float | None:
    """Memoized T2(x); None where the double-root search gives up.

    The search gives up at x = 0, where the two breaking curves pinch
    together (T2(x) -> T1(0) as x -> 0) and the oscillatory window has zero
    width, and within ~3.7e-6 L of |x| = L, where mu at T2 falls below the
    endpoint solver's floor; both raise PinchPointError and read as no T2.
    Any other failure propagates.
    """
    # second_breaking_time reads q and L only, so one search serves every eps
    key = (p.q, p.L, round(abs(x) / p.L, 12))
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
    region, to _BOUNDARY_RTOL of the units L and L/q. T2 is cached per x.
    x must be finite, and t finite and >= 0.
    """
    if not (math.isfinite(x) and 0 <= t < math.inf):
        raise ValueError(f"(x, t) = ({x}, {t}): x must be finite, and t finite and >= 0")
    if abs(abs(x) - p.L) <= _BOUNDARY_RTOL * p.L:
        return Region("beyond_scope")
    if abs(x) > p.L:
        return Region("S0")
    t1 = first_breaking_time(x, p)
    dt = _BOUNDARY_RTOL * p.L / p.q
    if abs(t - t1) <= dt:
        return Region("beyond_scope", T1=t1)
    if t < t1:
        return Region("S1", T1=t1)
    t2 = _t2_cached(x, p)
    if t2 is None or t >= t2 - dt:
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

    Returns a dict with keys 'x', 't', 'regions' (nt rows of nx Regions),
    'errors', and 'asymptotic' and/or 'numeric' by mode ('both' gives both),
    each an (nt, nx) complex array. A beyond-scope point of the asymptotic
    field is NaN, a null marker, never a guess; so is a point where a
    QuadratureConvergenceError, RealityError, RegionError or EndpointRangeError
    is raised, and 'errors' records it. Any other error propagates. The
    numeric field is the validation_config solver run, interpolated linearly
    onto the grid.
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
        vals = np.full((nt, nx), np.nan + 1j * np.nan)
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                if regions[i][j].label == "beyond_scope":
                    continue
                try:
                    vals[i, j] = psi_asymptotic(float(x), float(t), p, regions[i][j])
                except _POINT_ERRORS as exc:
                    out["errors"].append({"x": float(x), "t": float(t), "error": repr(exc)})
        out["asymptotic"] = vals

    if mode in ("numeric", "both"):
        snaps = evolve(validation_config(p, float(ts[-1]), [float(t) for t in ts]))
        out["numeric"] = np.array([np.interp(xs, s.x_nodes, s.values.real)
                                   + 1j * np.interp(xs, s.x_nodes, s.values.imag) for s in snaps])

    return out


def _fmt(v: float | None) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.17g}"


def classify_table(x: float, t: float, p: BarrierParams) -> list[str]:
    """The line region,T1,T2 of one point; a breaking time is empty where there is none."""
    reg = classify(x, t, p)
    return [f"{reg.label},{_fmt(reg.T1)},{_fmt(reg.T2)}"]


def breaking_curves(x_min: float, x_max: float, nx: int, p: BarrierParams) -> list[str]:
    """CSV lines x,T1,T2 over a grid of finite ends; T2 empty where the search fails."""
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError(f"x range [{x_min}, {x_max}] must have finite ends")
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


def field_table(p: BarrierParams, x_min: float | None = None, x_max: float | None = None,
                t_min: float | None = None, t_max: float | None = None, nx: int = 41,
                nt: int = 4, mode: str = "asymptotic") -> list[str]:
    """CSV lines of sample_grid: x,t,region,re_psi,im_psi,abs_psi.

    A range end left None follows the barrier: x in [-2L, 2L], t in
    [0.05, 0.2] L/q. Beyond-scope points read NA with empty values. Mode
    'numeric' prints the solver's field in the value columns; 'both' adds
    re_num,im_num,abs_num,abs_err, with abs_err empty where psi_asy is. A
    failed point is left empty, and TableError carries the whole table.
    """
    t_unit = p.L / p.q
    x_range = (-2.0 * p.L if x_min is None else x_min, 2.0 * p.L if x_max is None else x_max)
    t_range = (0.05 * t_unit if t_min is None else t_min, 0.2 * t_unit if t_max is None else t_max)
    res = sample_grid(x_range, t_range, (nx, nt), p, mode)
    both = mode == "both"
    header = "x,t,region,re_psi,im_psi,abs_psi"
    lines = [header + ",re_num,im_num,abs_num,abs_err" if both else header]
    shown = res["numeric" if mode == "numeric" else "asymptotic"]
    for i, t in enumerate(res["t"]):
        for j, x in enumerate(res["x"]):
            label, v = res["regions"][i][j].label, shown[i, j]
            label = "NA" if label == "beyond_scope" else label
            row = f"{_fmt(float(x))},{_fmt(float(t))},{label},"
            empty = np.isnan(v.real)
            row += ",," if empty else f"{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v))}"
            if both:
                u = res["numeric"][i, j]
                row += f",{_fmt(u.real)},{_fmt(u.imag)},{_fmt(abs(u))},"
                row += "" if empty else _fmt(abs(u - v))
            lines.append(row)
    errors = res["errors"]
    if errors:
        first = errors[0]
        raise TableError(f"{len(errors)} point(s) failed and were left empty; first at "
                         f"x = {first['x']:g}, t = {first['t']:g}: {first['error']}", lines)
    return lines


def validate_table(p: BarrierParams, eps_list: list[float], t: float | None = None) -> list[str]:
    """CSV lines eps,region,patch_lo,patch_hi,linf,l2 and a JSON summary line.

    Per eps, the S1 row compares the validation_config solver with the S1
    wave form at t (default 0.15 L/q) on the grid nodes of |x| <= L/2 with
    t < T1(x); the S0 row gives the solver's |psi| on [1.5 L, 2 L] at
    0.2 L/q. patch_lo and patch_hi are the first and last nodes used. Every
    eps's patches are checked before any solver runs: a patch without a
    grid node raises EmptyPatchError.
    """
    t_unit = p.L / p.q
    t_s1 = 0.15 * t_unit if t is None else t
    t_s0 = 0.2 * t_unit
    times = sorted({t_s1, t_s0})
    runs = []
    for eps in eps_list:
        pe = BarrierParams(p.q, p.L, eps)
        cfg = validation_config(pe, times[-1], times)
        x = cfg.x_nodes
        s1 = np.abs(x) <= 0.5 * pe.L
        s1[s1] = t_s1 < first_breaking_time(x[s1], pe)
        s0 = (x >= 1.5 * pe.L) & (x <= 2.0 * pe.L)
        for name, mask in (("S1", s1), ("S0", s0)):
            if not np.any(mask):
                raise EmptyPatchError(f"the {name} patch holds no grid node (q = {pe.q:g}, "
                                      f"L = {pe.L:g}, eps = {eps:g}, t = {t_s1:g})")
        runs.append((pe, cfg, x, s1, s0))
    lines = ["eps,region,patch_lo,patch_hi,linf,l2"]
    entries = []
    for pe, cfg, x, s1, s0 in runs:
        snaps = evolve(cfg)
        asy = np.array([psi_asy_g0(float(xx), t_s1, pe) for xx in x[s1]])
        diff = np.abs(snaps[times.index(t_s1)].values[s1] - asy)
        tail = np.abs(snaps[times.index(t_s0)].values[s0])
        for region, mask, err in (("S1", s1, diff), ("S0", s0, tail)):
            linf, l2 = float(np.max(err)), float(math.sqrt(np.mean(err ** 2)))
            lines.append(",".join([_fmt(pe.eps), region] + [_fmt(v) for v in (
                float(x[mask][0]), float(x[mask][-1]), linf, l2)]))
            entry = {"eps": float(pe.eps), "region": region, "linf": linf}
            entries.append(entry | {"l2": l2} if region == "S1" else entry)
    lines.append(json.dumps({"entries": entries, "t": float(t_s1)}, sort_keys=True))
    return lines


def endpoint_table(mu: float, p: BarrierParams) -> list[str]:
    """Header and row mu,m,re_alpha,im_alpha,Omega,eta,T0,Y0,H of one ray.

    Only T0 and Y0 need a concrete (x, t); Omega/t, eta/t and the rest depend
    on mu alone. The row takes the midpoint t = T2_ray/2 of the oscillatory
    window on the ray of constant mu through (L, 0). A point error raises TableError.
    """
    try:
        state = solve_endpoint(mu, p.q)
        t_ref = 0.5 * endpoint_ray_breaking_time(state, p.L)
        mods = modulation_constants(state.alpha, p.L - 2.0 * mu * t_ref, t_ref, p)
    except _POINT_ERRORS as exc:
        raise TableError(str(exc)) from exc
    vals = [mu, state.m, state.alpha.real, state.alpha.imag,
            mods.Omega, mods.eta, mods.T0, mods.Y0, mods.H]
    return ["mu,m,re_alpha,im_alpha,Omega,eta,T0,Y0,H", ",".join(_fmt(v) for v in vals)]
