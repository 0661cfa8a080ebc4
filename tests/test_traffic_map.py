import functools
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sign_word(x: float) -> str:
    if x > 0:
        return "positive"
    return "not positive"


def test_collector_records_the_executed_lines(monkeypatch):
    # the line tracer of tools/traffic_map.py sees the two lines that run of
    # _sign_word's three, in this file only, and puts back the tracer before it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("traffic_map_under_test",
                                                  ROOT / "tools" / "traffic_map.py")
    traffic_map = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traffic_map)
    code = _sign_word.__code__
    before = sys.gettrace()
    hits = traffic_map.collect_lines(functools.partial(_sign_word, 1.0), code.co_filename)
    assert hits == {code.co_filename: {code.co_firstlineno + 1, code.co_firstlineno + 2}}
    assert sys.gettrace() is before
