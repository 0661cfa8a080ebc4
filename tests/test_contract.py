"""The library's contract over every name in sqnls.__all__.

On edge inputs each call gives a finite value or raises one of ERRORS, with
warnings turned into errors, and a NaN argument always raises. The edge
inputs: q and L at 1e-7, 1 and 1e7; eps = 0.002 and 0.1 in units of q L, and
0.002 itself; x at 0, +-0.3 L and +-L(1 +- 1e-12); t at 0, T1(1 +- 1e-9),
T1 / 2 and 1.1 T1, or L/q outside the support; mu at the endpoint solver's
floor and at sqrt2 q.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import sqnls
from sqnls.genus1 import RealityError, modulation_constants
from sqnls.nls_direct import InstabilityError
from sqnls.phase_geometry import PinchPointError, endpoint_mu_floor
from sqnls.specfun import QuadratureConvergenceError

ERRORS = (ValueError, QuadratureConvergenceError, RealityError, PinchPointError,
          InstabilityError, ZeroDivisionError)
NAN = math.nan
SCALES = [(q, L) for q in (1e-7, 1.0, 1e7) for L in (1e-7, 1.0, 1e7)]
# evolve runs only where its grid points times its steps stay below this
EVOLVE_BUDGET = 8e6


def _finite(v) -> bool:
    # every number in v, through dataclass fields, sequences and arrays, is finite
    if v is None or isinstance(v, str):
        return True
    if dataclasses.is_dataclass(v):
        return all(_finite(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, (list, tuple)):
        return all(_finite(u) for u in v)
    return bool(np.all(np.isfinite(v)))


def _call(fn, *args):
    # the value of fn(*args), checked finite, or the declared error it raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = fn(*args)
        except ERRORS as exc:
            return exc
    assert _finite(value), (fn.__name__, args, value)
    return value


def _barriers(q: float, L: float) -> list[sqnls.BarrierParams]:
    # the barriers at one scale that BarrierParams accepts
    out = []
    for eps in (0.1 * q * L, 0.002 * q * L, 0.002):
        p = _call(sqnls.BarrierParams, q, L, eps)
        if isinstance(p, sqnls.BarrierParams):
            out.append(p)
    return out


def _xs(L: float) -> list[float]:
    return [0.0, 0.3 * L, -0.3 * L] + [s * L * (1 + d) for s in (1, -1) for d in (1e-12, -1e-12)]


def _points(p: sqnls.BarrierParams) -> list[tuple[float, float]]:
    # (x, t) on both sides of the first breaking time, and in S2 where it exists
    pts = []
    for x in _xs(p.L):
        if abs(x) < p.L:
            t1 = sqnls.first_breaking_time(x, p)
            pts += [(x, t) for t in (0.0, 0.5 * t1, t1 * (1 - 1e-9), t1 * (1 + 1e-9), 1.1 * t1)]
        else:
            pts += [(x, 0.0), (x, p.L / p.q)]
    return pts


def _g1_inputs(x: float, t: float, p: sqnls.BarrierParams) -> tuple:
    # the endpoint state and modulation constants that psi_asy_g1 takes at (x, t)
    state = sqnls.solve_endpoint((p.L - abs(x)) / (2.0 * t), p.q)
    return state, modulation_constants(state.alpha, abs(x), t, p)


def _psi_asy_g1(x: float, t: float, p: sqnls.BarrierParams) -> complex:
    return sqnls.psi_asy_g1(x, t, p, *_g1_inputs(x, t, p))


def _evolve_cases(q: float, L: float) -> list[tuple]:
    cases = []
    for p in _barriers(q, L):
        for t_final in (0.0, 0.01 * L / q):
            cfg = sqnls.default_config(p, t_final, [0.0, t_final])
            if cfg.grid_points * (t_final / cfg.dt + 1) <= EVOLVE_BUDGET:
                cases.append((cfg,))
    return cases


def _edge_cases(name: str, q: float, L: float) -> list[tuple]:
    # the argument tuples of sqnls.<name> at one scale
    ps = _barriers(q, L)
    if name == "BarrierParams":
        return [(q, L, eps) for eps in (0.1 * q * L, 0.002 * q * L, 0.002)]
    if name == "Region":
        return [(label, t1, t2) for label in ("S0", "S1", "S2", "beyond_scope")
                for t1, t2 in ((None, None), (L / q, None), (L / q, 2 * L / q))]
    if name in ("first_breaking_time", "second_breaking_time"):
        return [(x, ps[0]) for x in _xs(L)]
    if name in ("classify", "psi_asy_g0", "psi_asymptotic"):
        return [(x, t, p) for p in ps for x, t in _points(p)]
    if name == "psi_asy_g1":
        return [(x, t, p) for p in ps for x, t in _points(p)
                if abs(x) < L and t > sqnls.first_breaking_time(x, p)]
    if name == "solve_endpoint":
        floor, top = endpoint_mu_floor(q), math.sqrt(2.0) * q
        return [(mu, q) for mu in (floor, floor * (1 + 1e-9), 0.5 * q, top * (1 - 1e-9), top)]
    if name == "default_config":
        t0 = sqnls.first_breaking_time(0.0, ps[0])
        ts = (0.0, t0 * (1 - 1e-9), t0 * (1 + 1e-9), L / q)
        return [(p, t, [0.0, t]) for p in ps for t in ts]
    if name == "evolve":
        return _evolve_cases(q, L)
    raise KeyError(name)


CALLS = {name: getattr(sqnls, name) for name in sqnls.__all__} | {"psi_asy_g1": _psi_asy_g1}


def test_every_public_name_has_edge_cases():
    for name in sqnls.__all__:
        assert _edge_cases(name, 1.0, 1.0), name


@pytest.mark.parametrize("q, L", SCALES)
@pytest.mark.parametrize("name", sqnls.__all__)
def test_edge_inputs_give_a_value_or_a_typed_error(name, q, L):
    for args in _edge_cases(name, q, L):
        _call(CALLS[name], *args)


P = sqnls.BarrierParams(1.0, 1.0, 0.1)
S2_POINT = (0.25, 0.3)

# (name, arguments with NaN in one place); evolve takes a SolverConfig, and
# default_config's cases show that NaN cannot make one
NAN_CASES = [
    ("BarrierParams", (NAN, 1.0, 0.1)),
    ("BarrierParams", (1.0, NAN, 0.1)),
    ("BarrierParams", (1.0, 1.0, NAN)),
    ("Region", ("S1", NAN, None)),
    ("Region", ("S2", 0.2, NAN)),
    ("classify", (NAN, 0.1, P)),
    ("classify", (0.3, NAN, P)),
    ("first_breaking_time", (NAN, P)),
    ("second_breaking_time", (NAN, P)),
    ("psi_asy_g0", (NAN, 0.1, P)),
    ("psi_asy_g0", (0.3, NAN, P)),
    ("psi_asymptotic", (NAN, 0.3, P)),
    ("psi_asymptotic", (0.25, NAN, P)),
    ("solve_endpoint", (NAN, 1.0)),
    ("solve_endpoint", (0.5, NAN)),
    ("default_config", (P, NAN, [0.0])),
    ("default_config", (P, 0.1, [0.0, NAN])),
    ("default_config", (P, 0.1, [0.0, 0.1], NAN)),
    ("default_config", (P, 0.1, [0.0, 0.1], 1, NAN)),
]


@pytest.mark.parametrize("name, args", NAN_CASES, ids=[
    f"{name}-arg{[_finite(a) for a in args].index(False)}" for name, args in NAN_CASES])
def test_nan_argument_raises(name, args):
    assert isinstance(_call(CALLS[name], *args), ERRORS)


INF = math.inf


def _inf_cases(s: float) -> list[tuple]:
    # (name, arguments with s = +-inf in one place), in NAN_CASES' places
    return [
        ("BarrierParams", (s, 1.0, 0.1)),
        ("BarrierParams", (1.0, s, 0.1)),
        ("BarrierParams", (1.0, 1.0, s)),
        ("Region", ("S1", s, None)),
        ("Region", ("S2", 0.2, s)),
        ("classify", (s, 0.1, P)),
        ("classify", (0.3, s, P)),
        ("first_breaking_time", (s, P)),
        ("second_breaking_time", (s, P)),
        ("psi_asy_g0", (s, 0.1, P)),
        ("psi_asy_g0", (0.3, s, P)),
        ("psi_asymptotic", (s, 0.3, P)),
        ("psi_asymptotic", (0.25, s, P)),
        ("solve_endpoint", (s, 1.0)),
        ("solve_endpoint", (0.5, s)),
        ("default_config", (P, s, [0.0])),
        ("default_config", (P, 0.1, [0.0, s])),
        ("default_config", (P, 0.1, [0.0, 0.1], s)),
        ("default_config", (P, 0.1, [0.0, 0.1], 1, s)),
    ]


INF_CASES = [pytest.param(name, args, id=f"{name}-arg{[_finite(a) for a in args].index(False)}"
                                          f"-{sign}inf")
             for sign, s in (("+", INF), ("-", -INF)) for name, args in _inf_cases(s)]


# a finite value passes, such as psi_asy_g0's 0 at x = +-inf, which is S0's
@pytest.mark.parametrize("name, args", INF_CASES)
def test_infinite_argument_gives_a_value_or_a_typed_error(name, args):
    _call(CALLS[name], *args)


# psi_asy_g1 checks x and t against the state it is handed
@pytest.mark.parametrize("where", [0, 1])
def test_psi_asy_g1_nan_argument_raises(where):
    state, mods = _g1_inputs(*S2_POINT, P)
    args = [*S2_POINT, P, state, mods]
    args[where] = NAN
    assert isinstance(_call(sqnls.psi_asy_g1, *args), ERRORS)


@pytest.mark.parametrize("where, value", [(0, INF), (0, -INF), (1, INF), (1, -INF)])
def test_psi_asy_g1_infinite_argument_raises(where, value):
    state, mods = _g1_inputs(*S2_POINT, P)
    args = [*S2_POINT, P, state, mods]
    args[where] = value
    assert isinstance(_call(sqnls.psi_asy_g1, *args), ValueError)


def test_psi_asy_g1_rejects_a_state_solved_for_another_point():
    state, mods = _g1_inputs(0.3, 0.3, P)
    assert isinstance(_call(sqnls.psi_asy_g1, *S2_POINT, P, state, mods), ValueError)
