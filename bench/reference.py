"""Store the regrets and output digests of finished runs as the reference in ``baseline.json``.

    python3 bench/run.py --workload simplex --seed 21 --seconds 1 --trace 0   # one job
    python3 bench/reference.py

Reads each ``.bench_out/<workload>/seed<n>/result-trace0.json`` that is
correct and was made from the current ``src/``, and stores per workload and
seed the ``final_regret`` of each ``run`` step and the sha256 of every output
file.  Steps that read generated returns have the same regret for every seed;
they go under ``any_seed``.  ``run.py`` gates each run's regrets on these.
"""

import glob
import json
import os
import sys

from run import BASELINE, OUT, ROOT, src_digest
from workloads import WORKLOADS, Run


def main():
    current = src_digest()
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    reference = baseline.get("reference", {})
    if reference.get("src_sha256") != current:
        reference = {"src_sha256": current}
    for name, wl in WORKLOADS.items():
        seedless = [step.label for step in wl.steps if isinstance(step, Run) and step.gen]
        entry = reference.setdefault(name, {"any_seed": {}, "seeds": {}})
        for path in glob.glob(os.path.join(ROOT, OUT, name, "seed*", "result-trace0.json")):
            with open(path) as fh:
                record = json.load(fh)
            if not record["correct"] or record["env"]["src_sha256"] != current:
                continue
            regrets = record["regrets"]
            for label in seedless:
                if entry["any_seed"].setdefault(label, regrets[label]) != regrets[label]:
                    raise SystemExit(f"{path}: regret of {label} differs from other seeds")
            entry["seeds"][str(record["seed"])] = {
                "regrets": {k: v for k, v in regrets.items() if k not in seedless},
                "output_sha256": record["output_sha256"]}
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
        print(f"{name}: {len(entry['seeds'])} seeds, any seed {entry['any_seed']}")
    baseline["reference"] = reference
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
