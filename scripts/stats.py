"""Exact small-sample statistics for comparing two systems or two builds.

    wilson_interval(successes, n)  # a rate's 95% confidence interval
    mcnemar_p(only_a, only_b)      # two systems scored on the same items
    sign_test_p(wins, losses)      # paired benchmark runs

The p values are exact two-sided binomial tails, summed with `math.comb`
over integers, so they hold for any count, however small. Standard
library only; import it, or load it by file path as `bench_pairs.py`
does.
"""

from __future__ import annotations

import math

# the two-sided 95% normal quantile
Z95 = 1.959963984540054


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of `wins` against `losses` (tied
    pairs left out): the chance, when each pair is a fair coin, of a split
    at least as uneven. 1.0 when there is no pair."""
    n = wins + losses
    if not n:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(max(wins, losses), n + 1))
    return min(1.0, 2 * tail / 2 ** n)


def mcnemar_p(only_a: int, only_b: int) -> float:
    """The exact McNemar p of two systems scored on the same items:
    `only_a` items only system A gets right, `only_b` those only B does.
    Items both or neither get right say nothing of which is better, so
    the test is the sign test on the discordant pairs."""
    return sign_test_p(only_a, only_b)


def wilson_interval(successes: int, n: int, z: float = Z95
                    ) -> tuple[float, float]:
    """The Wilson score interval of a rate of `successes` in `n` trials,
    at the confidence level of the normal quantile `z` (95% by default).
    Unlike the normal interval, it stays inside [0, 1] and is not empty
    at a rate of 0 or 1. (0, 1) when there is no trial."""
    if not 0 <= successes <= n:
        raise ValueError(f"need 0 <= successes <= n, got {successes}/{n}")
    if not n:
        return 0.0, 1.0
    rate = successes / n
    scale = 1 + z * z / n
    center = (rate + z * z / (2 * n)) / scale
    spread = z / scale * math.sqrt(rate * (1 - rate) / n
                                   + z * z / (4 * n * n))
    # at a rate of 0 or 1 the bound is 0 or 1 exactly, which the
    # floating-point difference misses by an ulp
    return (0.0 if successes == 0 else center - spread,
            1.0 if successes == n else center + spread)
