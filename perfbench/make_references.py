"""Regenerate perfbench/references.json from the library in src/.

    python3 perfbench/make_references.py

Stores, for seeds 0-9, |psi| at every s2_field point and T2 at every curves
|x|, and the validate errors, which do not depend on the seed. Run it only
when a change to the library is meant to change these numbers, and say so
with the change.
"""

from __future__ import annotations

import json

from run import REFERENCE_FILE, load_library

SEEDS = range(10)


def main() -> int:
    sqnls = load_library()
    import workloads

    refs: dict = {"s2_field": {}, "curves": {}}
    for seed in SEEDS:
        refs["s2_field"][str(seed)] = [
            [x, t, abs(sqnls.psi_asymptotic(x, t, p))]
            for p, x, t in workloads.build("s2_field", seed)]
        refs["curves"][str(seed)] = [
            [ax, sqnls.second_breaking_time(ax, p)]
            for p, ax, _ in workloads.build("curves", seed)]
    batch = workloads.make_batch("validate", workloads.build("validate", 0), None)
    for label, op in batch.ops:
        bad = op()
        if bad:
            raise SystemExit(f"validate {label}: {bad}")
    refs["validate"] = {"max_abs_err": {
        f"{eps:g}": batch.observed[f"max_abs_err_eps{eps:g}"] for eps in workloads.VALIDATE_EPS}}
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
