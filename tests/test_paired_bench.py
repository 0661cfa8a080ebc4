"""tools/paired_bench.py on synthetic run records; no benchmark process is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("paired_bench", _ROOT / "tools" / "paired_bench.py")
pb = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pb)

# the end-to-end metrics, bounds and directions the benchmark declares
END_TO_END = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _run(op_ms: float, correct: bool = True, failed: int = 0, attempted: int = 100) -> dict:
    # one run's JSON line as perfbench/run.py prints it
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ms"},
                        "setup_s": {"value": 0.25, "unit": "s"}}}


def _summary(parent: list, change: list) -> dict:
    results = {"parent": parent, "change": change}
    return {"w": {"pairs": len(parent), **pb.summarize(results, {"op_ms_p50": 0.25})}}


# ten parent runs with quartiles 4.425 and 4.575 (IQR 0.15)
PARENT_MS = [4.3, 4.4, 4.4, 4.5, 4.5, 4.5, 4.5, 4.6, 4.6, 4.7]


class TestQuartiles:
    def test_odd_count(self):
        assert pb.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}

    def test_even_count_interpolates(self):
        # inclusive: the quartiles of n values sit at 1 + (n - 1) k / 4
        assert pb.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}

    def test_parent_runs(self):
        q = pb.quartiles(PARENT_MS)
        assert q["median"] == 4.5
        assert q["q3"] - q["q1"] == pytest.approx(0.15)


class TestSummarize:
    def test_wins_are_strict(self):
        # one lower, one tie, one higher: the tie counts for neither side
        m = _summary([_run(5.0)] * 3, [_run(4.0), _run(5.0), _run(6.0)])["w"]["metrics"]
        assert m["op_ms_p50"]["change_wins"] == 1
        assert m["setup_s"]["change_wins"] == 0
        assert m["op_ms_p50"]["bound"] == 0.25
        assert m["setup_s"]["bound"] is None
        assert m["op_ms_p50"]["parent_runs"] == [5.0] * 3
        assert m["op_ms_p50"]["change_runs"] == [4.0, 5.0, 6.0]

    def test_medians_and_iqr(self):
        change = [_run(v - 1.0) for v in PARENT_MS]
        m = _summary([_run(v) for v in PARENT_MS], change)["w"]["metrics"]["op_ms_p50"]
        assert m["change"]["median"] == 3.5
        assert m["median_change_rel"] == pytest.approx(3.5 / 4.5 - 1.0)
        assert m["parent_iqr"] == pytest.approx(0.15)

    def test_failures_and_correctness(self):
        s = _summary([_run(5.0), _run(5.0, failed=2)],
                     [_run(4.0, correct=False, failed=1, attempted=90), _run(4.0)])["w"]
        assert s["failed"] == {"parent": 2, "change": 1}
        assert s["attempted"] == {"parent": 200, "change": 190}
        assert s["correct"] == {"parent": True, "change": False}


def _claim(summary: dict, workload: str = "w", metric: str = "op_ms_p50") -> dict:
    return pb.claim(summary, workload, metric, pb.regressions(summary, END_TO_END))


class TestClaim:
    @staticmethod
    def _claim(change_ms: list, parent_ms: list = PARENT_MS, **change_kw) -> dict:
        parent = [_run(v) for v in parent_ms]
        change = [_run(v, **change_kw) for v in change_ms]
        return _claim(_summary(parent, change))

    def test_met(self):
        c = self._claim([v - 1.0 for v in PARENT_MS])
        assert c["change_wins"] == 10
        assert c["median_gap"] == pytest.approx(1.0)
        assert c["met"]

    def test_not_met_on_the_gap(self):
        # every pair won, by less than the parent's IQR of 0.15
        c = self._claim([v - 0.1 for v in PARENT_MS])
        assert c["change_wins"] == 10
        assert c["median_gap"] < c["parent_iqr"]
        assert not c["met"]

    def test_not_met_on_8_of_10_wins(self):
        change = [v - 1.0 for v in PARENT_MS]
        change[0] = change[9] = 9.0
        c = self._claim(change)
        assert c["change_wins"] == 8
        assert c["median_gap"] > c["parent_iqr"]
        assert not c["met"]

    def test_not_met_when_a_change_run_is_incorrect(self):
        parent = [_run(v) for v in PARENT_MS]
        change = [_run(v - 1.0) for v in PARENT_MS]
        change[3] = _run(PARENT_MS[3] - 1.0, correct=False)
        c = _claim(_summary(parent, change))
        assert c["change_wins"] == 10
        assert not c["change_correct"]
        assert not c["met"]

    def test_not_met_on_a_larger_failed_share(self):
        c = self._claim([v - 1.0 for v in PARENT_MS], failed=1)
        assert c["failed_share"] == {"parent": 0.0, "change": 0.01}
        assert not c["met"]
        # the same share as the parent's passes
        parent = [_run(v, failed=1) for v in PARENT_MS]
        change = [_run(v - 1.0, failed=1) for v in PARENT_MS]
        assert _claim(_summary(parent, change))["met"]


def _curves_run(op_ms: float, rss_mb: float) -> dict:
    return {"correct": True, "attempted": 1000, "failed": 0,
            "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ms"},
                        "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}}


class TestRegressions:
    @staticmethod
    def _summary(parent: list, change: list) -> dict:
        bounds = {m["name"]: m["bound"] for m in END_TO_END}
        return {"curves": {"pairs": len(parent),
                           **pb.summarize({"parent": parent, "change": change}, bounds)}}

    def test_rss_past_its_bound_is_listed_and_fails_the_claim(self):
        # a change that met its curves op_ms_p50 claim (0.194 -> 0.129 ms)
        # while peak_rss_mb rose 40.99 -> 43.39 MB, +5.9 % against the 5 % bound
        parent = [_curves_run(0.194 + 0.001 * i, 40.99) for i in range(-5, 5)]
        change = [_curves_run(0.129 + 0.001 * i, 43.39) for i in range(-5, 5)]
        s = self._summary(parent, change)
        (reg,) = pb.regressions(s, END_TO_END)
        assert (reg["workload"], reg["metric"]) == ("curves", "peak_rss_mb")
        assert (reg["parent_median"], reg["change_median"]) == (40.99, 43.39)
        assert reg["median_change_rel"] == pytest.approx(43.39 / 40.99 - 1.0)
        assert reg["bound"] == 0.05
        c = _claim(s, "curves")
        assert c["change_wins"] == 10
        assert c["median_gap"] > c["parent_iqr"]
        assert c["regressions"] == 1
        assert not c["met"]

    def test_within_the_bound_is_not_listed(self):
        parent = [_curves_run(0.194, 40.99)] * 10
        change = [_curves_run(0.129, 40.99 * 1.049)] * 10
        s = self._summary(parent, change)
        assert pb.regressions(s, END_TO_END) == []
        assert _claim(s, "curves")["met"]

    def test_a_gain_is_not_listed(self):
        parent = [_curves_run(0.194, 61.25)] * 10
        change = [_curves_run(0.129, 39.2)] * 10
        assert pb.regressions(self._summary(parent, change), END_TO_END) == []

    def test_higher_is_better_regresses_downwards(self):
        s = self._summary([_curves_run(1.0, 40.0)] * 3, [_curves_run(1.0, 30.0)] * 3)
        spec = [{"name": "peak_rss_mb", "bound": 0.05, "better": "higher"}]
        assert [r["metric"] for r in pb.regressions(s, spec)] == ["peak_rss_mb"]


class TestRunOnce:
    def test_last_line_is_the_result(self, monkeypatch, tmp_path):
        out = "warming up\n" + json.dumps(_run(4.0)) + "\n"
        monkeypatch.setattr(pb.subprocess, "run",
                            lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, out, ""))
        assert pb.run_once(tmp_path, "s2_field", 3, 1.0) == _run(4.0)

    def test_non_json_last_line_names_checkout_and_line(self, monkeypatch, tmp_path):
        out = '{"correct": true}\nTraceback: something printed last\n'
        monkeypatch.setattr(pb.subprocess, "run",
                            lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, out, ""))
        with pytest.raises(RuntimeError) as err:
            pb.run_once(tmp_path, "s2_field", 3, 1.0)
        assert str(tmp_path) in str(err.value)
        assert "'Traceback: something printed last'" in str(err.value)

    def test_failed_process(self, monkeypatch, tmp_path):
        monkeypatch.setattr(pb.subprocess, "run",
                            lambda cmd, **kw: subprocess.CompletedProcess(cmd, 1, "", "boom"))
        with pytest.raises(RuntimeError, match="boom"):
            pb.run_once(tmp_path, "s2_field", 3, 1.0)
