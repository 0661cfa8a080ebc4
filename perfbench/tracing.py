"""Traced repetitions: spans and counts per layer, recorded from outside.

The tracer replaces the library's public functions, in every ``sqnls``
module namespace that holds them, with wrappers from this file, runs one
repetition, and puts the originals back. No file under ``src/`` knows about
it. Coarse functions get a span (name, start, end, parent); hot ones, called
hundreds of thousands of times per point, only a count. Integrand
evaluations are counted by wrapping the integrand handed to the quadrature
entry points, and the split-step solver's steps by counting the forward FFTs
it calls.

A function that has moved to another ``sqnls`` module is found there by
name; one that is gone is skipped with a note, and the metrics that need it
are left out instead of crashing the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

# layer -> functions that get a span
SPANNED = {
    "specfun": ("quad_path", "quad_ray_to_inf"),
    "scattering": ("chi_integral",),
    "phase_geometry": ("second_breaking_time", "rho1_real_roots"),
    "genus0": ("psi_asy_g0",),
    "genus1": ("solve_endpoint", "modulation_constants", "period_integrals", "psi_asy_g1"),
    "nls_direct": ("evolve",),
    "cli": ("classify", "psi_asymptotic"),
}
# layer -> hot functions that are only counted
COUNTED = {
    "specfun": ("ellipk", "ellipe"),
    "scattering": ("kappa_weight",),
    "phase_geometry": ("rho1_value",),
}
QUAD = ("specfun.quad_path", "specfun.quad_ray_to_inf")
QUAD_CALLERS = ("genus0", "genus1", "scattering")
# bytes of one complex128 sample of the solver field
FIELD_BYTES = 16


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sqnls" or name.startswith("sqnls."))]


def find_function(layer: str, name: str):
    """The function `name` of `layer`, or wherever in sqnls it now lives."""
    home = sys.modules.get(f"sqnls.{layer}")
    fn = getattr(home, name, None) if home is not None else None
    if callable(fn):
        return fn
    for mod in _library_modules():
        fn = vars(mod).get(name)
        if callable(fn) and getattr(fn, "__name__", None) == name:
            return fn
    return None


class Tracer:
    """Installs the wrappers for one repetition and keeps what they record."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, outer, extra]
        self.counts: dict[str, int] = {}
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        for layer, names in SPANNED.items():
            for name in names:
                self._replace(layer, name, self._span_wrapper)
        for layer, names in COUNTED.items():
            for name in names:
                self._replace(layer, name, self._count_wrapper)
        self._patch_fft()

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _replace(self, layer: str, name: str, make_wrapper):
        fn = find_function(layer, name)
        key = f"{layer}.{name}"
        if fn is None:
            self.skipped.append(key)
            return
        wrapper = make_wrapper(key, fn)
        for mod in _library_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))

    def _patch_fft(self):
        # the solver's transforms; scipy.fft counts too if the solver moves there
        owners = [np.fft]
        if "scipy.fft" in sys.modules:
            owners.append(sys.modules["scipy.fft"])
        for owner in owners:
            for attr, key in (("fft", "fft.forward"), ("ifft", "fft.inverse")):
                fn = getattr(owner, attr, None)
                if fn is not None:
                    setattr(owner, attr, self._count_wrapper(key, fn))
                    self._patched.append((owner, attr, fn))

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, key: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        group = "specfun.quad" if key in QUAD else key
        is_quad = key in QUAD
        is_classify = key == "cli.classify"
        is_evolve = key == "nls_direct.evolve"
        counts = self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if is_quad:
                caller = sys._getframe(1).f_globals.get("__name__", "?").rsplit(".", 1)[-1]
                extra = caller
                ev_key = f"specfun.quad_evals.{caller}"
                counts[ev_key] = counts.get(ev_key, 0)
                inner = args[0] if args else kwargs.get("integrand")
                if callable(inner):
                    def counted(z, *rest, **kw):
                        counts[ev_key] += z.size if isinstance(z, np.ndarray) else 1
                        return inner(z, *rest, **kw)
                    if args:
                        args = (counted,) + args[1:]
                    else:
                        kwargs["integrand"] = counted
            elif is_evolve:
                cfg = args[0] if args else next(iter(kwargs.values()), None)
                extra = {"grid_points": getattr(cfg, "grid_points", None),
                         "start": (counts.get("fft.forward", 0), counts.get("fft.inverse", 0))}
            sid = len(spans)
            spans.append([key, 0.0, 0.0, stack[-1] if stack else -1,
                          active.get(group, 0) == 0, extra])
            stack.append(sid)
            active[group] = active.get(group, 0) + 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                active[group] -= 1
                stack.pop()
                rec = spans[sid]
                rec[1], rec[2] = t0, t1
                if is_evolve:
                    forward0, inverse0 = extra.pop("start")
                    extra["steps"] = counts.get("fft.forward", 0) - forward0
                    extra["transforms"] = extra["steps"] + counts.get("fft.inverse", 0) - inverse0
            if is_classify and len(args) >= 2:
                t1_val = getattr(out, "T1", None)
                rec[5] = t1_val is not None and args[1] > t1_val
            return out

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts
        counts[key] = counts.get(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-layer metrics ------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the repetition just traced."""
        spans = self.spans
        child = [0.0] * len(spans)
        under_classify = [False] * len(spans)
        for i, (name, t0, t1, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                under_classify[i] = under_classify[parent] or spans[parent][0] == "cli.classify"

        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for i, (name, t0, t1, _, outer, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            if outer:
                inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0) - child[i]

        have = {f"{layer}.{n}" for table in (SPANNED, COUNTED)
                for layer, names in table.items() for n in names} - set(self.skipped)
        m: dict[str, float] = {}

        def put(metric: str, needs: tuple, value):
            if all(n in have for n in needs):
                m[metric] = value

        c, s = self.counts, inclusive
        quad_spans = [sp for sp in spans if sp[0] in QUAD]
        put("specfun.quad_calls", QUAD, len(quad_spans))
        put("specfun.quad_evals", QUAD,
            sum(v for k, v in c.items() if k.startswith("specfun.quad_evals.")))
        for caller in QUAD_CALLERS:
            put(f"specfun.quad_calls.{caller}", QUAD, sum(1 for sp in quad_spans if sp[5] == caller))
            put(f"specfun.quad_evals.{caller}", QUAD, c.get(f"specfun.quad_evals.{caller}", 0))
        put("specfun.quad_s", QUAD, sum(t1 - t0 for n, t0, t1, _, outer, _ in spans
                                        if n in QUAD and outer))
        put("specfun.elliptic_calls", ("specfun.ellipk", "specfun.ellipe"),
            c.get("specfun.ellipk", 0) + c.get("specfun.ellipe", 0))

        put("scattering.chi_calls", ("scattering.chi_integral",), calls.get("scattering.chi_integral", 0))
        put("scattering.chi_s", ("scattering.chi_integral",), s.get("scattering.chi_integral", 0.0))
        put("scattering.kappa_calls", ("scattering.kappa_weight",), c.get("scattering.kappa_weight", 0))

        g1 = "genus1.modulation_constants"
        put("genus1.modulation_constants_s", (g1,), s.get(g1, 0.0))
        put("genus1.modulation_constants_self_s", (g1,), self_time.get(g1, 0.0))
        put("genus1.period_integrals_s", ("genus1.period_integrals",), s.get("genus1.period_integrals", 0.0))
        put("genus1.psi_asy_g1_s", ("genus1.psi_asy_g1",), s.get("genus1.psi_asy_g1", 0.0))
        put("genus1.solve_endpoint_calls", ("genus1.solve_endpoint",), calls.get("genus1.solve_endpoint", 0))
        put("genus1.solve_endpoint_s", ("genus1.solve_endpoint",), s.get("genus1.solve_endpoint", 0.0))

        t2 = "phase_geometry.second_breaking_time"
        put("phase_geometry.second_breaking_time_calls", (t2,), calls.get(t2, 0))
        put("phase_geometry.second_breaking_time_s", (t2,), s.get(t2, 0.0))
        put("phase_geometry.rho1_value_calls", ("phase_geometry.rho1_value",),
            c.get("phase_geometry.rho1_value", 0))
        put("phase_geometry.rho1_real_roots_s", ("phase_geometry.rho1_real_roots",),
            s.get("phase_geometry.rho1_real_roots", 0.0))

        put("cli.classify_calls", ("cli.classify",), calls.get("cli.classify", 0))
        put("cli.classify_s", ("cli.classify",), s.get("cli.classify", 0.0))
        past_t1 = sum(1 for sp in spans if sp[0] == "cli.classify" and sp[5])
        searches = sum(1 for i, sp in enumerate(spans) if sp[0] == t2 and under_classify[i])
        # 0 where no classify call passes T1
        put("cli.t2_hit_ratio", ("cli.classify", t2), 1.0 - searches / past_t1 if past_t1 else 0.0)

        put("genus0.psi_asy_g0_calls", ("genus0.psi_asy_g0",), calls.get("genus0.psi_asy_g0", 0))
        put("genus0.psi_asy_g0_s", ("genus0.psi_asy_g0",), s.get("genus0.psi_asy_g0", 0.0))

        evolves = [sp for sp in spans if sp[0] == "nls_direct.evolve"]
        steps = sum(sp[5]["steps"] for sp in evolves)
        evolve_s = s.get("nls_direct.evolve", 0.0)
        byte_total = sum(sp[5]["transforms"] * 2 * FIELD_BYTES * (sp[5]["grid_points"] or 0)
                         for sp in evolves)
        put("nls_direct.evolve_s", ("nls_direct.evolve",), evolve_s)
        put("nls_direct.steps", ("nls_direct.evolve",), steps)
        put("nls_direct.grid_points", ("nls_direct.evolve",),
            max((sp[5]["grid_points"] or 0 for sp in evolves), default=0))
        put("nls_direct.us_per_step", ("nls_direct.evolve",), 1e6 * evolve_s / steps if steps else 0.0)
        put("nls_direct.bytes_per_step", ("nls_direct.evolve",), byte_total / steps if steps else 0.0)
        return m

    def dump(self) -> list[list]:
        """Spans as plain lists: name, start, end, parent index, extra."""
        return [[n, t0, t1, parent, extra if isinstance(extra, (str, bool, dict)) else None]
                for n, t0, t1, parent, _, extra in self.spans]


def _is_time(metric: str) -> bool:
    return metric.endswith(("_s", ".us_per_step"))


def count_metrics(m: dict) -> dict:
    """The metrics that must repeat exactly between traced repetitions."""
    return {k: v for k, v in m.items() if not _is_time(k)}


def median_metrics(per_rep: list[dict]) -> dict:
    """Counts from the first traced repetition, times as the median over all."""
    return {k: statistics.median(r[k] for r in per_rep) if _is_time(k) else v
            for k, v in per_rep[0].items()}
