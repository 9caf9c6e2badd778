"""Run the benchmark once per seed and report each metric's median and quartiles.

    python3 bench/spread.py --workload simplex --seeds 1-10 [--out FILE]

Runs the command in ``BENCHMARK.json`` with its ``run_seconds`` and
``--trace 0``, one process at a time, from the checkout root.  The spread
of a metric is the distance between its first and third quartile
(``statistics.quantiles``, n=4) as a share of its median; it is printed
beside the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    table = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
    for name, s in table.items():
        bound = bounds[name]
        spread = s["spread"]
        verdict = "ok" if spread is not None and spread < bound / 3 else "WIDE"
        print(f"{name:14s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {spread:.3f} bound {bound} {verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "all_correct": all(r["correct"] for r in runs), "metrics": table}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
