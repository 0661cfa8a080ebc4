"""Seeded inputs, operations and output checks of the three workloads.

Every workload is driven through the package's top-level names only
(``sqnls.classify``, ``sqnls.psi_asymptotic``, ...), never through the
command line, so that moving a function between modules behind those names
neither changes the measured work nor breaks the harness.

A workload is built in two steps:

* ``build(seed)`` makes the inputs. It is the set-up that ``setup_s``
  measures, and it is all that depends on the seed.
* ``make_batch(inputs, refs)`` returns a fresh list of operations for one
  repetition. Each operation runs the program on one input, checks the
  output and returns the list of failed checks (empty when all pass).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

import sqnls

WORKLOADS = ("s2_field", "curves", "validate")

# (q, L) pairs shared by s2_field and curves
BARRIERS = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0))
S2_EPS = 0.05
# s2_field cell centres as (|x| / L, (t - T1) / (T2 - T1)). The seed moves
# each point by at most S2_JITTER from its centre: enough that no two points
# share |x|, t or mu, small enough that every seed measures the same mix of
# cheap and dear points (the adaptive quadrature cost of one point ranges
# over 0.6-2.9 s across a cell 0.08 wide). The cells stay below |x| = 0.6 L:
# beyond it the eta ray quadrature of modulation_constants fails to converge
# at scattered points (see NOTES.md), and this workload measures cost, not
# that defect.
S2_CELLS = ((0.20, 0.30), (0.40, 0.50), (0.55, 0.70))
S2_JITTER = 0.01
# curves: |x| / L at the centres of this many equal cells over [0.05, 0.95],
# each moved by the seed by at most CURVE_JITTER. The T2 search cost climbs
# steeply towards |x| = L (9 ms at 0.1 L, 65 ms at 0.9 L), so a jitter as wide
# as the cell made the batch cost vary by about 10 % from seed to seed.
CURVE_CELLS = 12
CURVE_JITTER = 0.01
# validate: the S1 patch and S0 tail windows of `sqnls validate` at q = L = 1
VALIDATE_EPS = (0.05, 0.025)
VALIDATE_T = (0.15, 0.2)
S1_PATCH = 0.5
S0_TAIL = (1.5, 2.0)

REL_TOL = 1e-10          # reference agreement (|psi|, T2)
ERR_GROWTH_LIMIT = 1.10  # max_abs_err may exceed its reference by at most 10 %


@dataclass
class Batch:
    """One repetition of a workload.

    ops are (label, fn) pairs; ``sample_size`` consecutive operations make one
    latency sample, their mean (2 on curves, one mirror pair; 2 on validate,
    both eps). ``observed`` collects values the operations report, such as
    validate's max_abs_err.
    """

    ops: list
    sample_size: int = 1
    observed: dict = field(default_factory=dict)


def build(name: str, seed: int):
    """Inputs of workload `name` for `seed`; the same seed gives the same inputs."""
    if name == "s2_field":
        return _s2_inputs(seed)
    if name == "curves":
        return _curve_inputs(seed)
    if name == "validate":
        return _validate_inputs()
    raise ValueError(f"unknown workload {name!r}")


def make_batch(name: str, inputs, refs: dict | None) -> Batch:
    """Fresh operations over `inputs`; `refs` holds this seed's references or None."""
    if name == "s2_field":
        return _s2_batch(inputs, refs)
    if name == "curves":
        return _curve_batch(inputs, refs)
    if name == "validate":
        return _validate_batch(inputs, refs)
    raise ValueError(f"unknown workload {name!r}")


def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# s2_field: classify then psi_asymptotic at points strictly inside S2
# ---------------------------------------------------------------------------

def _s2_inputs(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    points = []
    for q, L in BARRIERS:
        p = sqnls.BarrierParams(q, L, S2_EPS)
        for fx, ft in S2_CELLS:
            ax = (fx + rng.uniform(-S2_JITTER, S2_JITTER)) * L
            x = ax if rng.random() < 0.5 else -ax
            t1 = sqnls.first_breaking_time(x, p)
            t2 = sqnls.second_breaking_time(x, p)
            t = t1 + (ft + rng.uniform(-S2_JITTER, S2_JITTER)) * (t2 - t1)
            points.append((p, x, t))
    rng.shuffle(points)
    for key in (lambda pt: abs(pt[1]), lambda pt: pt[2],
                lambda pt: (pt[0].L - abs(pt[1])) / (2.0 * pt[2])):
        if len({key(pt) for pt in points}) != len(points):
            raise RuntimeError("s2_field inputs repeat |x|, t or mu")
    return points


def _s2_batch(points, refs) -> Batch:
    def op(i: int, p, x: float, t: float):
        def run() -> list[str]:
            reg = sqnls.classify(x, t, p)
            if reg.label != "S2":
                return [f"region {reg.label}, expected S2"]
            psi = sqnls.psi_asymptotic(x, t, p, reg)
            mod = abs(psi)
            if not math.isfinite(mod):
                return [f"|psi| = {mod} is not finite"]
            if refs is not None:
                rx, rt, rmod = refs[i]
                if rx != x or not _rel_close(rt, t):
                    return ["inputs differ from the reference inputs"]
                if not _rel_close(mod, rmod):
                    return [f"|psi| = {mod!r} differs from reference {rmod!r}"]
            return []
        return run

    ops = [(f"q={p.q:g} L={p.L:g} x={x:.6f} t={t:.6f}", op(i, p, x, t))
           for i, (p, x, t) in enumerate(points)]
    return Batch(ops)


# ---------------------------------------------------------------------------
# curves: classify past T1, in mirror pairs (x, -x)
# ---------------------------------------------------------------------------

def _curve_inputs(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    pairs = []
    width = 0.9 / CURVE_CELLS
    for q, L in BARRIERS:
        p = sqnls.BarrierParams(q, L, S2_EPS)
        for k in range(CURVE_CELLS):
            ax = (0.05 + width * (k + 0.5) + rng.uniform(-CURVE_JITTER, CURVE_JITTER)) * L
            t1 = sqnls.first_breaking_time(ax, p)
            t = t1 * (1.0 + rng.uniform(0.1, 2.0))
            pairs.append((p, ax, t))
    rng.shuffle(pairs)
    return pairs


def _curve_batch(pairs, refs) -> Batch:
    def op(i: int, p, x: float, t: float):
        def run() -> list[str]:
            reg = sqnls.classify(x, t, p)
            bad = []
            t1_closed = (p.L - abs(x)) / (2.0 * math.sqrt(2.0) * p.q)
            if reg.T1 is None or not _rel_close(reg.T1, t1_closed, 1e-13):
                bad.append(f"T1 = {reg.T1!r}, closed form {t1_closed!r}")
            if reg.T2 is None or not reg.T2 > t1_closed:
                bad.append(f"T2 = {reg.T2!r} is not above T1 = {t1_closed!r}")
                return bad
            expected = "S2" if t < reg.T2 else "beyond_scope"
            if reg.label != expected:
                bad.append(f"region {reg.label}, expected {expected} (t = {t!r}, T2 = {reg.T2!r})")
            if refs is not None:
                rx, rt2 = refs[i]
                if rx != abs(x):
                    bad.append("inputs differ from the reference inputs")
                elif not _rel_close(reg.T2, rt2):
                    bad.append(f"T2 = {reg.T2!r} differs from reference {rt2!r}")
            return bad
        return run

    ops = []
    for i, (p, ax, t) in enumerate(pairs):
        for x in (ax, -ax):
            ops.append((f"q={p.q:g} L={p.L:g} x={x:.6f} t={t:.6f}", op(i, p, x, t)))
    return Batch(ops, sample_size=2)


# ---------------------------------------------------------------------------
# validate: split-step solver against the S1 wave form, S0 tail amplitude
# ---------------------------------------------------------------------------

def _validate_inputs() -> list:
    # the inputs are fixed; the seed has nothing to vary here
    return [sqnls.BarrierParams(1.0, 1.0, eps) for eps in VALIDATE_EPS]


def _validate_batch(params, refs) -> Batch:
    # one latency sample is the mean over both eps, as on curves: the plain
    # median of two modes 4x apart is set by the extremes of each mode
    batch = Batch([], sample_size=len(params))
    errors: dict[float, float] = {}

    def op(p):
        def run() -> list[str]:
            t_s1, t_s0 = VALIDATE_T
            cfg = sqnls.default_config(p, t_s0, list(VALIDATE_T), refine=2, dt_divisor=32)
            snap_s1, snap_s0 = sqnls.evolve(cfg)  # raises on norm drift or NaN
            x = snap_s1.x_nodes
            in_patch = [i for i, xx in enumerate(x)
                        if abs(xx) <= S1_PATCH and t_s1 < sqnls.first_breaking_time(float(xx), p)]
            asy = np.array([sqnls.psi_asy_g0(float(x[i]), t_s1, p) for i in in_patch])
            err = float(np.max(np.abs(snap_s1.values[in_patch] - asy)))
            x0 = snap_s0.x_nodes
            tail = float(np.max(np.abs(snap_s0.values[(x0 >= S0_TAIL[0]) & (x0 <= S0_TAIL[1])])))
            errors[p.eps] = err
            batch.observed[f"max_abs_err_eps{p.eps:g}"] = err
            batch.observed[f"s0_tail_eps{p.eps:g}"] = tail
            bad = []
            if not (math.isfinite(err) and math.isfinite(tail)):
                bad.append(f"non-finite error {err} or tail {tail}")
            if refs is not None:
                ref = refs["max_abs_err"][f"{p.eps:g}"]
                if not err <= ERR_GROWTH_LIMIT * ref:
                    bad.append(f"max_abs_err {err!r} exceeds {ERR_GROWTH_LIMIT} x reference {ref!r}")
            if p.eps == min(VALIDATE_EPS):
                coarse = errors.get(max(VALIDATE_EPS))
                if coarse is None or not err < coarse:
                    bad.append(f"error does not decay with eps: {coarse!r} -> {err!r}")
            return bad
        return run

    batch.ops = [(f"eps={p.eps:g}", op(p)) for p in params]
    return batch
