#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs each workload once per seed and
reports, for every end-to-end metric, the median and the quartile spread
(Q3 - Q1 over the median, statistics.quantiles n=4) next to the metric's
bound from BENCHMARK.json. A spread should stay below a third of its bound.

    python3 perfbench/spread.py --workload serve_lenet --seeds 1-10

With --compare FILE it also checks that this set's medians are not worse
than those saved in FILE (by a previous --save) by more than the bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save", help="write the per-seed values here")
    parser.add_argument("--compare", help="earlier --save file to compare")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {}
    ok = True
    for workload in args.workload:
        rows = values.setdefault(workload, {})
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n"
                      f"{out.stderr[-2000:]}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                rows.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                flush=True)
    earlier = json.load(open(args.compare)) if args.compare else {}
    for workload, rows in values.items():
        print(f"\n{workload} ({len(args.seeds)} seeds)")
        for name, vals in rows.items():
            bound = metrics[name]["bound"]
            spread = stats.quartile_spread(vals) if len(vals) > 1 else 0.0
            mid = stats.median(vals)
            line = (f"  {name:22s} median {mid:<12.6g} spread {spread:7.2%} "
                    f"bound {bound:.0%}")
            if name != "setup_s" and spread > bound:
                line += "  SPREAD > BOUND"
                ok = False
            elif spread > bound / 3:
                line += "  (spread > bound/3)"
            old = earlier.get(workload, {}).get(name)
            if old:
                before = stats.median(old)
                worse = ((mid - before) if metrics[name]["better"] == "lower"
                         else (before - mid))
                change = worse / abs(before) if before else 0.0
                line += f"  vs earlier {change:+.2%} worse"
                if change > bound:
                    line += "  REGRESSION > BOUND"
                    ok = False
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
