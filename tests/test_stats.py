"""The exact statistics of `scripts/stats.py` against hand-computed
values, and their symmetry and monotonicity."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "stats.py"
_SPEC = importlib.util.spec_from_file_location("stats", _PATH)
stats = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stats)


@pytest.mark.parametrize("test", [stats.sign_test_p, stats.mcnemar_p])
def test_binomial_p_hand_values(test):
    # 2 * sum(C(n, i), i >= max) / 2**n: 2/2**10; 2 * 6,760,390/2**25;
    # 2 * 29/2**28; and no pair at all
    assert test(10, 0) == 0.001953125
    assert test(14, 11) == pytest.approx(0.690, abs=5e-4)
    assert test(27, 1) == pytest.approx(2.16e-7, rel=1e-3)
    assert test(0, 0) == 1.0
    assert test(5, 5) == test(1, 0) == 1.0


@pytest.mark.parametrize("test", [stats.sign_test_p, stats.mcnemar_p])
def test_binomial_p_symmetric_and_monotone(test):
    for small in range(6):
        ps = [test(large, small) for large in range(small, 40)]
        assert ps == [test(small, large) for large in range(small, 40)]
        # non-increasing, and falling once below the cap of 1
        assert all(a > b or a == b == 1 for a, b in zip(ps, ps[1:])), small
        assert all(0 < p <= 1 for p in ps)


def test_the_bench_script_uses_this_sign_test():
    path = _PATH.parent / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert Path(bench_pairs.stats.__file__) == _PATH
    assert bench_pairs.sign_test_p is bench_pairs.stats.sign_test_p


@pytest.mark.parametrize("successes, n, low, high", [
    (9, 10, 0.5958, 0.9821), (0, 10, 0.0, 0.2775), (10, 10, 0.7225, 1.0),
    (1, 2, 0.0945, 0.9055)])
def test_wilson_hand_values(successes, n, low, high):
    got = stats.wilson_interval(successes, n)
    assert got == pytest.approx((low, high), abs=5e-5)
    assert stats.wilson_interval(n - successes, n) == pytest.approx(
        (1 - high, 1 - low), abs=5e-5)


def test_wilson_ends_and_edges():
    assert stats.wilson_interval(0, 10)[0] == 0.0
    assert stats.wilson_interval(10, 10)[1] == 1.0
    assert stats.wilson_interval(0, 0) == (0.0, 1.0)
    for n in range(1, 30):
        bounds = [stats.wilson_interval(s, n) for s in range(n + 1)]
        for s, (low, high) in enumerate(bounds):
            assert 0 <= low < s / n < high <= 1 or s in (0, n)
        # more successes move both bounds up
        assert all(a[0] < b[0] and a[1] < b[1]
                   for a, b in zip(bounds, bounds[1:]))
    for bad in ((-1, 10), (11, 10)):
        with pytest.raises(ValueError):
            stats.wilson_interval(*bad)
