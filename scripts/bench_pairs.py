#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics at a git revision and in the
working tree, over alternating pairs of runs.

    python3 scripts/bench_pairs.py REV --workload W --pairs N --seconds S

Run from the repository root. The revision's committed files are exported
with `git archive` into a temporary directory. Pair i runs
`perfbench/run.py --workload W --seed FIRST+i --seconds S` there and in the
working tree, the revision first in even pairs and the working tree first
in odd ones, so that a slow spell of the machine hits both sides alike.
For each end-to-end metric of `BENCHMARK.json` it prints the median and
quartiles of each side, their ratio, the pairs in which the working tree
is better, and the exact two-sided sign-test p of that count (tied pairs
dropped), and then whether each pair's golden records (bundle and
prediction digests) are equal. A run that fails its checks or raises in
a parse stops the script. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of `wins` against `losses`: the
    chance, when each pair is a fair coin, of a split at least as uneven."""
    n = wins + losses
    if not n:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(max(wins, losses), n + 1))
    return min(1.0, 2 * tail / 2 ** n)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metrics: list[dict], base: list[dict],
              change: list[dict]) -> list[dict]:
    """One row per metric of `metrics` (`BENCHMARK.json` entries, each with
    `name` and `better`), from the runs' metric values paired by index:
    each side's median and quartiles, the pairs the change wins and loses,
    and the sign-test p."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run[name] for run in base]
        b = [run[name] for run in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        rows.append({"name": name, "base": statistics.median(a),
                     "base_q": _quartiles(a), "change": statistics.median(b),
                     "change_q": _quartiles(b), "wins": wins,
                     "losses": losses, "pairs": len(a),
                     "p": sign_test_p(wins, losses)})
    return rows


def run_once(root: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """The metric values and the golden record of one `perfbench/run.py`
    run in `root`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    try:
        last = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    if done.returncode or not last or not last["correct"] or last["failed"]:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit(f"bench_pairs: run failed in {root} (seed {seed}, "
                 f"exit {done.returncode})")
    report = next(json.loads(line) for line in done.stdout.splitlines()
                  if line.startswith("{") and '"golden"' in line)
    return ({name: m["value"] for name, m in last["metrics"].items()},
            report["golden"])


def export(rev: str, into: Path) -> None:
    """The committed files of `rev`, written under `into`."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:  # Python before 3.10.12 / 3.11.4
            tar.extractall(into)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed "
                        "FIRST+i (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    base, change = [], []  # (metrics, golden record) of each run
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, Path(tmp))
        for i in range(args.pairs):
            seed = args.first_seed + i
            sides = [(Path(tmp), base), (ROOT, change)]
            for root, runs in sides if i % 2 == 0 else sides[::-1]:
                runs.append(run_once(root, args.workload, seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done",
                  file=sys.stderr)

    print(f"{args.workload}: {args.rev} against the working tree, "
          f"{args.pairs} pairs of {args.seconds:g} s runs from seed "
          f"{args.first_seed}")
    print(f"{'metric':24} {'rev median [q1, q3]':>32} "
          f"{'tree median [q1, q3]':>32} {'ratio':>7} {'wins':>6} {'p':>8}")
    for row in summarize(metrics, [m for m, _ in base],
                         [m for m, _ in change]):
        sides = [f"{row[k]:.4g} [{row[k + '_q'][0]:.4g}, "
                 f"{row[k + '_q'][1]:.4g}]" for k in ("base", "change")]
        ratio = row["change"] / row["base"] if row["base"] else math.nan
        print(f"{row['name']:24} {sides[0]:>32} {sides[1]:>32} "
              f"{ratio:>7.3f} {row['wins']:>3}/{row['pairs']:<2} "
              f"{row['p']:>8.4g}")
    differ = [args.first_seed + i for i, ((_, a), (_, b))
              in enumerate(zip(base, change)) if a != b]
    print(f"golden records equal in {args.pairs - len(differ)}/{args.pairs} "
          f"pairs" + (f"; they differ on seeds {differ}" if differ else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
