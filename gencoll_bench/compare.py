#!/usr/bin/env python3
"""Compare two sets of gencoll_bench results (A = parent, B = change, or two
repeats of one commit) metric by metric, against the bounds in BENCHMARK.json.

    python3 gencoll_bench/compare.py A_DIR B_DIR [--benchmark BENCHMARK.json]
    python3 gencoll_bench/compare.py --selftest

Each directory holds one file per run, named <workload>.<anything>.json, whose
last line is the result JSON gencoll_bench printed. Runs are paired in file
name order, so name them by pair index (small_sync.03.json) and alternate which
side runs first.

For every (workload, end-to-end metric) it prints each side's median and
quartiles, the fraction of pairs B wins (ties count for neither side), and a
verdict:
    gain        B better in >= 9/10 of pairs, medians apart by more than A's
                quartile spread
    loss        the same rule the other way round: B worse in >= 9/10 of
                pairs, by more than A's quartile spread, but within the bound
    same        B no worse than A by more than the bound, and no loss
    regression  B's median worse than A's by more than the bound
    better / worse
                spread above the bound, but every B run beats (or loses to)
                every A run
    unresolved  spread (either side's quartile distance over its median)
                above the bound otherwise
The bounds are sized for the host's run-to-run noise, so on a steady
workload a slowdown well inside the bound can still be measured; `loss`
reports it instead of `same`. setup_s is judged on its medians alone (never
`unresolved`): set-up lasts 0.1-70 ms, its spread is wide, and its bound
limits how far the median may move.
Exits 1 when any verdict is loss, regression, worse or unresolved.
"""

import argparse
import io
import json
import pathlib
import statistics
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt_quartiles(values):
    return "/".join(f"{x:.4g}" for x in quartiles(values))


def verdict(a, b, bound, better, median_only=False):
    """Verdict for one metric; a and b are the runs of each side, in pair order.
    median_only skips the spread test."""
    sign = 1.0 if better == "lower" else -1.0
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0, (qb3 - qb1) / abs(mb) if mb else 0.0)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    loss_fraction = losses / len(pairs) if pairs else 0.0
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if spread > bound and not median_only:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", win_fraction, spread
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse", win_fraction, spread
        return "unresolved", win_fraction, spread
    if worse_by > bound:
        return "regression", win_fraction, spread
    if abs(mb - ma) > qa3 - qa1:
        if win_fraction >= 0.9:
            return "gain", win_fraction, spread
        if loss_fraction >= 0.9:
            return "loss", win_fraction, spread
    return "same", win_fraction, spread


def load_runs(directory):
    """{workload: [result, ...]} in file name order."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        runs.setdefault(path.name.split(".")[0], []).append(json.loads(lines[-1]))
    return runs


def compare(a_dir, b_dir, spec, out=sys.stdout):
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    bad = 0
    header = (f"{'workload':<16} {'metric':<18} {'A q1/med/q3':>32} {'B q1/med/q3':>32} "
              f"{'B wins':>7} {'spread':>7} {'bound':>6}  verdict")
    print(header, file=out)
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload:<16} (no runs on {'A' if not a else 'B'})", file=out)
            bad += 1
            continue
        if any(not r.get("correct") for r in a + b):
            print(f"{workload:<16} a run reported correct=false", file=out)
            bad += 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            v, wins, spread = verdict(av, bv, metric["bound"], metric["better"],
                                      median_only=name == "setup_s")
            bad += v in ("loss", "regression", "worse", "unresolved")
            print(f"{workload:<16} {name:<18} {fmt_quartiles(av):>32} {fmt_quartiles(bv):>32} "
                  f"{wins:>7.2f} {spread:>7.1%} {metric['bound']:>6.0%}  {v}", file=out)
    return 1 if bad else 0


def selftest():
    cases = [
        # (A runs, B runs, bound, better, expected verdict)
        ([10.0] * 10, [10.0] * 10, 0.1, "lower", "same"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05], 0.1, "lower",
         "regression"),
        ([10.0, 10.1, 9.9, 10.0, 10.05] * 2, [9.5, 9.55, 9.45, 9.5, 9.52] * 2, 0.1, "lower",
         "gain"),
        ([10.0, 13.0, 7.0, 10.0, 12.0], [10.0, 9.0, 11.0, 10.5, 8.0], 0.1, "lower",
         "unresolved"),
        ([100.0, 101.0, 99.0, 100.0] * 3, [105.0, 106.0, 104.0, 105.0] * 3, 0.1, "higher",
         "gain"),
        ([100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0], 0.1, "higher", "regression"),
        ([10.0, 14.0, 10.5, 13.0], [5.0, 7.0, 5.5, 6.5], 0.1, "lower", "better"),
        ([5.0, 7.0, 5.5, 6.5], [10.0, 14.0, 10.5, 13.0], 0.1, "lower", "worse"),
        # Within the bound: a consistent 5 % slowdown is a loss, a mixed one is not.
        ([10.0, 10.1, 9.9, 10.0], [10.5, 10.6, 10.4, 10.5], 0.1, "lower", "loss"),
        ([10.0, 10.6, 9.9, 10.4], [10.5, 10.1, 10.4, 10.2], 0.1, "lower", "same"),
        ([100.0, 101.0, 99.0, 100.0] * 3, [95.0, 96.0, 94.0, 95.0] * 3, 0.1, "higher", "loss"),
    ]
    failures = 0
    for i, (a, b, bound, better, want) in enumerate(cases):
        got = verdict(a, b, bound, better)[0]
        if got != want:
            print(f"selftest case {i}: got {got}, want {want}")
            failures += 1
    # Median-only (setup_s): a wide spread is no verdict by itself.
    for a, b, want in (([10.0, 13.0, 7.0, 10.0, 12.0], [10.0, 9.0, 11.0, 10.5, 8.0], "same"),
                       ([10.0, 13.0, 7.0, 10.0, 12.0], [13.0, 16.0, 10.0, 13.0, 15.0],
                        "regression")):
        got = verdict(a, b, 0.25, "lower", median_only=True)[0]
        if got != want:
            print(f"selftest median-only case: got {got}, want {want}")
            failures += 1

    # End to end through the file loader: identical sides pass, a 30% slower
    # B fails.
    spec = {"workloads": [{"name": "w", "why": ""}],
            "end_to_end": [{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}
    with tempfile.TemporaryDirectory() as tmp:
        for side, scale in (("A", 1.0), ("B", 1.0), ("C", 1.3)):
            d = pathlib.Path(tmp, side)
            d.mkdir()
            for i in range(5):
                result = {"correct": True, "attempted": 10, "failed": 0,
                          "metrics": {"p50_us": {"value": scale * (10 + 0.01 * i), "unit": "us"}}}
                (d / f"w.{i:02d}.json").write_text("noise line\n" + json.dumps(result) + "\n")
        if compare(pathlib.Path(tmp, "A"), pathlib.Path(tmp, "B"), spec, io.StringIO()) != 0:
            print("selftest: identical sides did not pass")
            failures += 1
        if compare(pathlib.Path(tmp, "A"), pathlib.Path(tmp, "C"), spec, io.StringIO()) != 1:
            print("selftest: 30% regression was not flagged")
            failures += 1
    print("selftest ok" if not failures else f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a_dir", nargs="?")
    parser.add_argument("b_dir", nargs="?")
    parser.add_argument("--benchmark", type=pathlib.Path, default=HERE.parent / "BENCHMARK.json")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.a_dir or not args.b_dir:
        parser.error("give two result directories, or --selftest")
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    return compare(args.a_dir, args.b_dir, spec)


if __name__ == "__main__":
    sys.exit(main())
