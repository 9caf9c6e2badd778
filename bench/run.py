"""The bisons benchmark: time the public CLI on seeded workloads.

    python3 bench/run.py --workload simplex --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Each CLI step of a job runs as
``python3 -m bisons ...`` in a child process with
``PYTHONPATH=<checkout>/src`` and BLAS/OpenMP pinned to one thread, one
process at a time, all on one CPU.  With ``--trace 0`` jobs repeat for about
``--seconds`` (see ``repeat``, at least one job) and each runs in slices
interleaved with a speed probe (``clock.py``), so that times are scaled to
a fixed machine speed: ``wall_s`` and ``cpu_s`` are means over the jobs of
the scaled times, ``peak_rss_mb`` the largest peak of any job process and
``setup_s`` the median of five scaled set-ups.  With ``--trace 1`` untraced
and traced jobs alternate in the same way, unsliced (see ``tracer.py``), and
the per-layer metrics are reported.  Every job's outputs
are gated (``workloads.py``) and its regrets compared with the reference in
``baseline.json`` (``reference_check``).  The last line of
standard output is one JSON object; the full record, with the environment,
input and output digests and every job, goes to ``.bench_out/<workload>/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import clock
from workloads import WORKLOADS, Item, digest_tree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".bench_out"
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_REPEATS = 5
# Over four times the slowest job (~22 s); a run's last job starts by ~52 s,
# so even a killed one ends the run within 180 s.
JOB_TIMEOUT_S = 100.0
# A float summation order change moves a regret by far less; a loosened solve by far more.
REGRET_REL_TOL = 1e-8
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
IMPORT_PROBE = "import sys, numpy, bisons; print(sys.version.split()[0], numpy.__version__)"


@dataclass
class Job:
    wall: float
    raw_wall: float
    cpu: float
    rss_mb: float
    items: list
    regrets: dict
    digests: dict
    procs: list = field(default_factory=list)


def job_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.update(THREAD_ENV)
    return env


def spawn(argv, log_path, deadline, sliced=True):
    return clock.spawn(argv, ROOT, job_env(), log_path, deadline, sliced)


def run_job(wl, argvs, work, traced=False, sliced=True):
    """One job: every step as its own ``python3 -m bisons`` process, or all
    steps in one ``tracer.py`` process, which writes each step's log,
    ``trace-report.json`` (per-step exit status, per-layer metrics) and ``spans.csv``.
    A job still running ``JOB_TIMEOUT_S`` after it started is killed.
    ``sliced`` is passed to ``clock.spawn``; traced jobs are never sliced."""
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    job_dir = os.path.join(work, "job")
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(job_dir)
    logs = [os.path.join(work, f"step{i}.log") for i in range(len(argvs))]
    report = os.path.join(work, "trace-report.json")
    if traced:
        if os.path.exists(report):
            os.remove(report)
        procs = [spawn([sys.executable, os.path.join(HERE, "tracer.py"), report, os.path.join(work, "spans.csv"),
                        json.dumps(argvs), json.dumps(logs)], os.path.join(work, "tracer.log"), deadline, sliced=False)]
        codes = [procs[0].code or 1] * len(argvs)
        if os.path.exists(report):
            with open(report) as fh:
                codes = json.load(fh)["exit_codes"]
    else:
        procs = [spawn([sys.executable, "-m", "bisons", *argv], log, deadline, sliced)
                 for argv, log in zip(argvs, logs)]
        codes = [p.code for p in procs]
    texts = []
    for log in logs:
        with open(log, errors="replace") as fh:
            texts.append(fh.read())
    items, regrets = wl.gate(job_dir, texts, codes)
    return Job(wall=sum(p.wall for p in procs), raw_wall=sum(p.raw_wall for p in procs), cpu=sum(p.cpu for p in procs),
               rss_mb=max(p.rss_mb for p in procs), items=items, regrets=regrets,
               digests=digest_tree(job_dir), procs=[p.__dict__ for p in procs])


def repeat(run_one, seconds):
    """Call ``run_one`` at least once, and again while half of another call,
    as long as the last, is expected to fit within ``seconds``."""
    results, t0 = [], time.perf_counter()
    while True:
        start = time.perf_counter()
        results.append(run_one())
        took = time.perf_counter() - start
        if time.perf_counter() - t0 + took / 2.0 > seconds:
            return results


def setup(wl, work, seed, repeats):
    """Write the seeded inputs and start one cold interpreter importing bisons,
    ``repeats`` times; each time is scaled like a job's (the input writing by
    the probes before and after it)."""
    inputs = os.path.join(work, "inputs")
    times, versions = [], None
    for _ in range(repeats):
        before = clock.speed_factor()
        t0 = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        wl.make_inputs(inputs, seed)
        written = time.perf_counter() - t0
        written *= (before + clock.speed_factor()) / 2.0
        probe_log = os.path.join(work, "import.log")
        probe = spawn([sys.executable, "-c", IMPORT_PROBE], probe_log, time.perf_counter() + JOB_TIMEOUT_S)
        times.append(written + probe.wall)
        if probe.code != 0:
            with open(probe_log, errors="replace") as fh:
                raise SystemExit(f"bisons does not import:\n{fh.read()}")
        with open(probe_log) as fh:
            versions = fh.read().split()
    return times, versions, digest_tree(inputs)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest():
    files = digest_tree(os.path.join(ROOT, "src"))
    lines = "".join(f"{path} {h}\n" for path, h in files.items() if "__pycache__" not in path)
    return hashlib.sha256(lines.encode()).hexdigest()


def environment(versions, load_start, cpu):
    return {
        "python": versions[0] if versions else None,
        "numpy": versions[1] if versions and len(versions) > 1 else None,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "probe_ref_s": clock.PROBE_REF_S,
        "slice_s": clock.SLICE_S,
        "thread_env": THREAD_ENV,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, work, argvs, seconds):
    """Untraced run: end-to-end metrics over repeated jobs."""
    jobs = repeat(lambda: run_job(wl, argvs, work), seconds)
    items = [it for job in jobs for it in job.items]
    if any(j.digests != jobs[0].digests or j.regrets != jobs[0].regrets for j in jobs):
        items.append(Item("rerun", False, "outputs differ between repeated jobs"))
    metrics = {
        "wall_s": metric(statistics.mean(j.wall for j in jobs), "s"),
        "cpu_s": metric(statistics.mean(j.cpu for j in jobs), "s"),
        "peak_rss_mb": metric(max(j.rss_mb for j in jobs), "MiB"),
    }
    return metrics, jobs, items


def trace(wl, work, argvs, seconds):
    """Traced run: pairs of an untraced and a traced job, both unsliced, so
    that the per-layer times the tracer takes inside its process hold no
    pauses.  Per-layer metrics come from the last traced job; ``trace.wall_s``
    is its unscaled wall time and ``trace.overhead`` the median traced over the
    median untraced unscaled wall."""
    pairs = repeat(lambda: (run_job(wl, argvs, work, sliced=False), run_job(wl, argvs, work, traced=True)), seconds)
    plain, traced = pairs[-1]
    jobs = [job for pair in pairs for job in pair]
    items = [it for job in jobs for it in job.items]
    report = {}
    if os.path.exists(os.path.join(work, "trace-report.json")):
        with open(os.path.join(work, "trace-report.json")) as fh:
            report = json.load(fh)
    metrics = report.get("metrics", {})
    self_total = sum(m["value"] for name, m in metrics.items() if name.count(".") == 1 and name.endswith(".self_s"))
    if not report:
        items.append(Item("tracer", False, "no trace report"))
    if report.get("unrestored"):
        items.append(Item("tracer", False, f"attributes not restored: {report['unrestored']}"))
    if report.get("missing"):
        items.append(Item("tracer", False, f"attributes not found, update tracer.TARGETS: {report['missing']}"))
    if any(job.digests != plain.digests or job.regrets != plain.regrets for job in jobs):
        items.append(Item("tracer", False, "traced outputs differ from untraced outputs"))
    if self_total > traced.raw_wall:
        items.append(Item("tracer", False, f"layer self time {self_total:.3f}s above traced wall {traced.raw_wall:.3f}s"))
    metrics["trace.wall_s"] = metric(traced.raw_wall, "s")
    metrics["trace.overhead"] = metric(statistics.median(t.raw_wall for _, t in pairs)
                                       / statistics.median(p.raw_wall for p, _ in pairs), "ratio")
    return metrics, jobs, items


def reference_check(wl, seed, job):
    """Compare a job with the reference in ``baseline.json``: one item per
    recorded regret (those of this seed, and of the steps whose input is the
    same for every seed), and the output files whose sha256 differs from the
    recorded one (None if this seed is not recorded)."""
    with open(BASELINE) as fh:
        ref = json.load(fh).get("reference", {}).get(wl.name, {})
    recorded = ref.get("seeds", {}).get(str(seed))
    expected = {**ref.get("any_seed", {}), **(recorded["regrets"] if recorded else {})}
    items = []
    for label, want in sorted(expected.items()):
        got = job.regrets.get(label)
        ok = got is not None and abs(got - want) <= REGRET_REL_TOL * max(abs(want), 1.0)
        items.append(Item(f"reference:{label}", ok, "" if ok else f"regret {got!r}, reference {want!r}"))
    changed = None if recorded is None else sorted(
        path for path, h in recorded["output_sha256"].items() if job.digests.get(path) != h)
    return items, changed


def run_workload(wl, seed, seconds, traced, cpu):
    work = os.path.join(OUT, wl.name, f"seed{seed}")
    os.makedirs(work, exist_ok=True)
    load_start = list(os.getloadavg())
    setup_times, versions, input_digests = setup(wl, work, seed, 1 if traced else SETUP_REPEATS)
    argvs = wl.argvs(os.path.join(work, "inputs"), os.path.join(work, "job"), seed)
    metrics, jobs, items = (trace if traced else measure)(wl, work, argvs, seconds)
    if not traced:
        metrics = {"setup_s": metric(statistics.median(setup_times), "s"), **metrics}
    ref_items, changed = reference_check(wl, seed, jobs[0])
    items += ref_items
    failed = sum(not it.ok for it in items)
    record = {
        "workload": wl.name, "why": wl.why, "layers": wl.layers, "seed": seed, "trace": int(traced),
        "correct": failed == 0, "attempted": len(items), "failed": failed, "failed_frac": failed / len(items),
        "metrics": metrics, "regrets": jobs[0].regrets, "steps": argvs, "setup_times": setup_times,
        "input_sha256": input_digests, "output_sha256": jobs[0].digests,
        "outputs_changed_from_reference": changed,
        "items": [it.__dict__ for it in items], "jobs": [job.__dict__ for job in jobs],
        "raw_wall_s": statistics.mean(j.raw_wall for j in jobs),
        "env": environment(versions, load_start, cpu),
    }
    with open(os.path.join(work, f"result-trace{int(traced)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(f"{wl.name} seed={seed} trace={int(traced)} jobs={len(jobs)} attempted={len(items)} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'raw_wall_s (unscaled, not a metric)':40s} {record['raw_wall_s']:.6g} s")
    print(f"  {'failed_frac':40s} {record['failed_frac']:.6g} ({failed}/{len(items)})")
    for label, regret in record["regrets"].items():
        print(f"  {'regret ' + label + ' (gated, not a metric)':40s} {regret:.10g} nats")
    if changed is not None:
        print(f"  {'outputs changed from reference':40s} {', '.join(changed) or 'none'}")
    for it in items:
        if not it.ok:
            print(f"  FAILED {it.label}: {it.reason}")
    sys.stdout.flush()
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bisons", "cli.py")):
        print(f"no bisons package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    cpu = clock.pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), cpu) for n in names]
    if len(records) == 1:
        result = {key: records[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {"correct": all(r["correct"] for r in records),
                  "attempted": sum(r["attempted"] for r in records),
                  "failed": sum(r["failed"] for r in records),
                  "workloads": {r["workload"]: r["metrics"] for r in records}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
