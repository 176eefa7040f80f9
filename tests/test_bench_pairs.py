import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, side, trace, rate, time, failed):
    metrics = {"rate": {"value": rate, "unit": "1/s"}, "time": {"value": time, "unit": "s"}}
    return {"workload": "w", "seed": seed, "trace": trace, "side": side,
            "result": {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}}


def test_summary_records_medians_wins_failures_and_bounds():
    bench_pairs = _load_tool()
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "rate", "better": "higher", "bound": 0.25},
                           {"name": "time", "better": "lower", "bound": 0.1}]}
    runs = []
    for i in range(10):
        rate = 1.0 + i
        time = 1.0 + 0.1 * i
        runs.append(_run(101 + i, "base", 0, rate, time, failed=3))
        # the change raises the rate on every pair but the first (a tie)
        # and takes 20% longer on every pair
        runs.append(_run(101 + i, "change", 0, rate + (i > 0), 1.2 * time, failed=2))
    # a traced pair is left out of every figure
    runs.append(_run(101, "base", 1, 1e6, 1e6, failed=50))
    runs.append(_run(101, "change", 1, 1e-6, 1e-6, failed=50))

    summary = bench_pairs.summarize({"runs": runs}, spec)["w"]

    assert summary["jobs"] == {"base": {"attempted": 1000, "failed": 30},
                               "change": {"attempted": 1000, "failed": 20}}
    rate, time = summary["rate"], summary["time"]
    assert rate["pairs"] == time["pairs"] == 10
    assert rate["base"]["median"] == pytest.approx(5.5)
    assert rate["change"]["median"] == pytest.approx(6.5)
    assert rate["change_won"] == 9
    assert rate["relative_change"] == pytest.approx(-1.0 / 5.5)  # better: negative
    assert not rate["worse_than_bound"]
    assert time["base"]["median"] == pytest.approx(1.45)
    assert time["change"]["median"] == pytest.approx(1.74)
    assert time["change_won"] == 0
    assert time["relative_change"] == pytest.approx(0.2)  # worse: positive
    assert time["worse_than_bound"]
