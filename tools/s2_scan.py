"""Where the S2 wave form fails: two scans of psi_asymptotic, by quadrature pass.

Usage, from the root of a checkout:

    python3 tools/s2_scan.py

The near-edge scan takes |x|/L in {0.99, 0.995, 0.998, 0.999, 0.9995, 0.9998}
and t at the tenths 0.1, ..., 0.9 of (T1(x), T2(x)); the near-T1 scan takes
t = T1(x)(1 + 1e-7) at x = 0.1 L, ..., 0.9 L. Both run at (q, L) in
{(1, 1), (2, 1), (1, 2)}. A point fails when classify does not put it in S2
or psi_asymptotic raises. Each failure is counted per (q, L) and per pass:
the innermost quadrature entry point of sqnls.specfun in the traceback
together with the sqnls function that called it, which names one of the
passes of an S2 point (the band pass, the segment alpha* -> alpha, the ray
iq -> i inf, or a chi transform). numpy RuntimeWarnings are recorded and
counted, not printed. At every point that evaluates, the scan also takes
the envelope defect (genus1.envelope_defect: the relative miss of the wave
form's largest modulus from q + Im alpha) and reports the worst per (q, L).
The S2 constants do not depend on eps, so one eps serves. The scans import
sqnls from the checkout's src/.
"""

from __future__ import annotations

import collections
import sys
import traceback
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sqnls  # noqa: E402
from sqnls.field import RegionError  # noqa: E402
from sqnls.genus1 import envelope_defect, modulation_constants  # noqa: E402

BARRIERS = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0))
EDGE_FRACTIONS = (0.99, 0.995, 0.998, 0.999, 0.9995, 0.9998)
TENTHS = tuple(k / 10 for k in range(1, 10))
T1_OFFSET = 1e-7
EPS = 0.05

# (caller, specfun entry point) -> the pass of an S2 point it runs
PASSES = {
    ("_cut_integral", "quad_path"): "band pass",
    ("modulation_constants", "quad_path"): "segment alpha* -> alpha",
    ("modulation_constants", "quad_ray_to_inf"): "ray iq -> i inf",
    ("chi_batch", "adaptive_panels"): "chi",
}


def failing_pass(exc: BaseException) -> str:
    """The pass whose quadrature raised exc, or the exception type and the
    innermost sqnls function when no quadrature frame is in its traceback."""
    frames = [(Path(f.filename).stem, f.name) for f in traceback.extract_tb(exc.__traceback__)
              if Path(f.filename).parent.name == "sqnls"]
    in_specfun = [i for i, (module, _) in enumerate(frames) if module == "specfun"]
    if not in_specfun:
        return f"{type(exc).__name__} in {frames[-1][1] if frames else '?'}"
    # walk out from the innermost specfun frame to its entry point and caller
    j = in_specfun[-1]
    while j > 0 and frames[j - 1][0] == "specfun":
        j -= 1
    caller = frames[j - 1][1] if j > 0 else "?"
    return PASSES.get((caller, frames[j][1]), f"{caller} -> {frames[j][1]}")


def edge_points(p) -> list[tuple[float, float]]:
    points = []
    for frac in EDGE_FRACTIONS:
        x = frac * p.L
        t1, t2 = sqnls.first_breaking_time(x, p), sqnls.second_breaking_time(x, p)
        points += [(x, t1 + k * (t2 - t1)) for k in TENTHS]
    return points


def t1_points(p) -> list[tuple[float, float]]:
    return [(k * p.L, sqnls.first_breaking_time(k * p.L, p) * (1.0 + T1_OFFSET)) for k in TENTHS]


SCANS = (
    ("near |x| = L: |x|/L in " + ", ".join(map(str, EDGE_FRACTIONS))
     + ", t at tenths of (T1, T2)", edge_points),
    (f"near T1: t = T1(x)(1 + {T1_OFFSET:g}), x = 0.1 L, ..., 0.9 L", t1_points),
)


def defect_at(x: float, t: float, p) -> float:
    """The envelope defect of the S2 constants at (x, t), as psi_asymptotic takes them."""
    state = sqnls.solve_endpoint((p.L - abs(x)) / (2.0 * t), p.q)
    return envelope_defect(state.alpha, modulation_constants(state.alpha, abs(x), t, p), p.q)


def scan(points_of) -> dict:
    """Failures of one scan: per (q, L) with the worst envelope defect, per
    pass, and the warning count."""
    per_barrier = {}
    per_pass = collections.Counter()
    n_warnings = 0
    for q, L in BARRIERS:
        p = sqnls.BarrierParams(q, L, EPS)
        points = points_of(p)
        evaluated = []
        for x, t in points:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    reg = sqnls.classify(x, t, p)
                    if reg.label != "S2":
                        raise RegionError(f"region {reg.label}")
                    sqnls.psi_asymptotic(x, t, p, reg)
                    evaluated.append((x, t))
                except Exception as exc:  # every failure is counted by where it happened
                    per_pass[failing_pass(exc)] += 1
            n_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        with warnings.catch_warnings():
            # the same constants again, whose warnings are counted above
            warnings.simplefilter("ignore", RuntimeWarning)
            worst = max((defect_at(x, t, p) for x, t in evaluated), default=0.0)
        per_barrier[(q, L)] = (len(points) - len(evaluated), len(points), worst)
    return {"per_barrier": per_barrier, "per_pass": per_pass, "warnings": n_warnings}


def report(title: str, result: dict) -> None:
    failed = sum(f for f, _, _ in result["per_barrier"].values())
    total = sum(n for _, n, _ in result["per_barrier"].values())
    print(f"{title}\n  failed {failed} of {total} points")
    for (q, L), (f, n, worst) in result["per_barrier"].items():
        defect = (f"worst envelope defect {worst:.2g} over the {n - f} that evaluate"
                  if f < n else "none evaluates")
        print(f"  q={q:g} L={L:g}: {f} of {n}; {defect}")
    for name, count in result["per_pass"].most_common():
        print(f"  pass {name}: {count}")
    print(f"  numpy RuntimeWarnings: {result['warnings']}")


def main() -> int:
    for title, points_of in SCANS:
        report(title, scan(points_of))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
