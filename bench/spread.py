"""Run the benchmark untraced once per seed and report each end-to-end
metric's spread.

    python3 bench/spread.py --workload tables --seeds 1-10 --seconds 30
    python3 bench/spread.py --workload all --seeds 1-10 --out spread.json

For every metric it prints the median of the runs and the distance between
the first and third quartiles (`statistics.quantiles(values, n=4)`) as a
share of that median, which is the run-to-run spread that a bound in
BENCHMARK.json has to cover.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS as _WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = tuple(sorted(_WORKLOADS))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--out")
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    report = {}
    for name in names:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=os.path.dirname(BENCH),
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit("%s seed %d: exit %d" % (name, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print("%s seed %d correct=%s %s" % (
                name, seed, result["correct"],
                " ".join("%s=%.5g" % (k, m["value"]) for k, m in result["metrics"].items())),
                flush=True)
        metrics = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            med, iqr = spread(values)
            metrics[key] = {"median": med, "iqr_share": iqr, "values": values,
                            "unit": runs[0]["metrics"][key]["unit"]}
            print("%s %s median %.6g iqr/median %.4f" % (name, key, med, iqr), flush=True)
        report[name] = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                        "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)


if __name__ == "__main__":
    main()
