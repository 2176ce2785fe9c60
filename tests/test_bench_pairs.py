"""The paired benchmark comparison: its exact sign test and its summary."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_sign_test_p():
    # two-sided: twice the chance of a split at least as uneven
    sign_test_p = bench_pairs.sign_test_p
    assert sign_test_p(10, 0) == pytest.approx(0.00195, abs=5e-6)
    assert sign_test_p(9, 1) == pytest.approx(0.0215, abs=5e-5)
    assert sign_test_p(1, 9) == sign_test_p(9, 1)
    assert sign_test_p(5, 5) == sign_test_p(0, 0) == 1.0
    assert sign_test_p(1, 0) == 1.0


def test_summary_reads_each_metric_in_its_direction():
    metrics = [{"name": "parse_ms_p50", "better": "lower"},
               {"name": "parse_per_s", "better": "higher"}]
    base = [{"parse_ms_p50": 0.2 + i / 100, "parse_per_s": 100}
            for i in range(10)]
    change = [{"parse_ms_p50": 0.15 + i / 100,
               "parse_per_s": 90 if i == 3 else 100 if i == 4 else 120}
              for i in range(10)]
    p50, per_s = bench_pairs.summarize(metrics, base, change)
    assert (p50["wins"], p50["losses"], p50["pairs"]) == (10, 0, 10)
    assert p50["base"] == pytest.approx(0.245)
    assert p50["change"] == pytest.approx(0.195)
    assert p50["base_q"] == pytest.approx((0.2225, 0.2675))
    assert (per_s["wins"], per_s["losses"]) == (8, 1)
    assert per_s["p"] == pytest.approx(0.0391, abs=5e-5)
