"""orbitkit benchmark: seeded CLI jobs in a closed loop, one process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the jobs import orbitkit from
``src``.  Each job is one CLI command in a fresh interpreter, so no
in-process cache (``bch``'s lru_cache, a ring's CH plan) carries from one
job to the next.  The jobs run one after another, each started when the
previous one has exited; a pass is the whole job list, and a new pass
starts while fewer than S seconds have passed.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics:

  wall_s       job time, not counting set-up, summed over the list; each
               job counts with its fastest pass
  setup_s      interpreter start, ``import orbitkit``, spec loading (which
               builds the ring) and the CLI's LazardGroup, summed over jobs;
               the median over passes
  peak_rss_mb  the largest resident set of any job; the median over passes

On a shared machine, slow phases caused by neighbours often last as long as
a pass, and a median over passes still carried them: over ten seeds of a
CH-series workload with seven passes per run, its quartile spread was 0.22
of the median, against 0.10 for the sum of each job's fastest pass.

With ``--trace 1`` the first pass runs untraced and the later ones traced,
and the last line reports the per-layer metrics of the median traced pass
(see layers.py), the tracing overhead, and each command's job time from the
untraced pass.  A job that exits non-zero or breaks its correctness gate
counts as failed and its time enters no metric.  Inputs, reports, spans and
the run record go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from importlib import metadata

import layers
import workloads
from spans import clock

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170          # every run must end within 180 s
COMMANDS = ("chartable", "verify", "restrict", "chain", "solve", "bch")
# Jobs run with one BLAS thread: on a small shared machine a second thread
# waits on whichever core a neighbour holds, which made run times spread
# several times wider than they do single-threaded.
JOB_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class RunError(Exception):
    """The benchmark cannot run here; no result is printed."""


class JobResult:
    __slots__ = ("job", "ok", "error", "total_s", "setup_s", "cpu_s",
                 "rss_kb", "digest", "spans", "missing")

    @property
    def work_s(self):
        return self.total_s - self.setup_s


def run_job(job, index, out_dir, trace, seed, limit):
    """Start one job, wait for it to exit, and check what it printed."""
    stem = os.path.join(out_dir, f"job{index:03d}")
    record_path = stem + ".record.json"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "src",
           record_path, "1" if trace else "0", "--", *job.args]
    env = {k: v for k, v in os.environ.items() if k != "ORBITKIT_SEED"}
    env.update(JOB_ENV)
    res = JobResult()
    res.job, res.spans, res.missing = job, [], []
    with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
        start = clock()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(max(limit, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        end = clock()
    with open(stem + ".out", "rb") as fh:
        stdout = fh.read()
    res.total_s = end - start
    res.setup_s = 0.0
    res.rss_kb = usage.ru_maxrss
    res.cpu_s = usage.ru_utime + usage.ru_stime
    res.digest = hashlib.sha256(stdout).hexdigest()
    res.ok, res.error = True, None
    try:
        job.check(proc.returncode, stdout, seed)
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (workloads.JobFailed, OSError, ValueError, KeyError,
            TypeError) as exc:
        res.ok, res.error = False, f"{type(exc).__name__}: {exc}"
        return res
    if not start <= record["start"] <= record["imported"] <= end:
        raise RunError("job timestamps fall outside the job's lifetime; "
                       "the monotonic clock is not shared between processes")
    res.setup_s = record["imported"] - start + record["setup_s"]
    res.spans, res.missing = record["spans"], record["missing"]
    return res


def _median(values):
    return statistics.median(values) if values else 0.0


def _fastest(passes):
    """Each job's shortest successful work time, summed over the job list."""
    total = 0.0
    for runs in itertools.zip_longest(*passes):
        times = [r.work_s for r in runs if r is not None and r.ok]
        total += min(times, default=0.0)
    return total


def end_to_end(passes):
    setups = [sum(r.setup_s for r in p if r.ok) for p in passes]
    rss = [max((r.rss_kb for r in p if r.ok), default=0) / 1024
           for p in passes]
    return {"wall_s": (_fastest(passes), "s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median(rss), "MB")}


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def per_layer(untraced, traced):
    """Layer metrics of the median traced pass, plus overhead and commands."""
    by_pass = [layers.layer_metrics([(r.total_s, r.spans)
                                     for r in p if r.ok]) for p in traced]
    order = sorted(range(len(by_pass)),
                   key=lambda i: by_pass[i]["trace.job_s"])
    chosen = by_pass[order[(len(order) - 1) // 2]]
    job_s = chosen["trace.job_s"]
    covered = sum(chosen[f"{name}_s"] for name in layers.SPAN_NAMES)
    if abs(covered + chosen["trace.unattributed_s"] - job_s) > 1e-6 * max(
            1.0, job_s):
        raise RunError("span self times do not add up to the job time")
    out = {name: (value, _unit(name)) for name, value in chosen.items()}
    out["trace.overhead_s"] = (_fastest(traced) - _fastest(untraced), "s")
    for command in COMMANDS:
        out[f"{command}_s"] = (_fastest(
            [[r for r in p if r.job.command == command] for p in untraced]),
            "s")
    return out


def _git_commit(root):
    """HEAD of the checkout when it is a git work tree, read from .git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _source_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "orbitkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def validate_specs(root, spec_dir, specs):
    """Parse every spec with the program's own loaders, before any timing."""
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        from orbitkit import cli
        from orbitkit.errors import OrbitkitError
    except ImportError as exc:
        raise RunError(f"cannot import orbitkit: {exc}") from exc
    for name, spec in specs.items():
        path = os.path.join(spec_dir, f"{name}.json")
        try:
            if "moduli" in spec:
                ring = cli.load_ring_spec(path)
                if name.startswith("class2_") and ring.class_ != 2:
                    raise ValueError(f"class {ring.class_}, not 2")
            elif "dimension" in spec:
                cli.load_qp_spec(path)
            else:
                cli.load_subring_spec(path)
        except (OrbitkitError, ValueError, ArithmeticError) as exc:
            raise RunError(f"spec {name} rejected: "
                           f"{type(exc).__name__}: {exc}") from exc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, root):
    if not os.path.isfile(os.path.join(root, "src", "orbitkit", "cli.py")):
        raise RunError(f"no orbitkit sources under {root}/src")
    out_dir = os.path.join(
        ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    spec_dir = os.path.join(out_dir, "specs")
    os.makedirs(spec_dir)
    jobs, specs = workloads.build(args.workload, args.seed, spec_dir)
    validate_specs(root, spec_dir, specs)

    begin = clock()
    deadline = begin + args.seconds
    passes, errors, first_digest = [], [], {}
    while True:
        traced = bool(args.trace) and bool(passes)
        pass_start = clock()
        results = []
        for i, job in enumerate(jobs):
            limit = begin + RUN_LIMIT_S - clock()
            res = run_job(job, len(passes) * len(jobs) + i, out_dir, traced,
                          args.seed, limit)
            seen = first_digest.setdefault(i, res.digest)
            if res.ok and res.digest != seen:
                res.ok = False
                res.error = "report differs from the first pass's"
            if not res.ok:
                errors.append(f"pass {len(passes)} {job.command} "
                              f"{job.label}: {res.error}")
            results.append(res)
            if clock() > begin + RUN_LIMIT_S:
                break
        passes.append((traced, results))
        took = clock() - pass_start
        wanted = 2 if args.trace else 1
        if clock() + took > begin + RUN_LIMIT_S or (
                len(passes) >= wanted and clock() >= deadline):
            break

    untraced = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    if args.trace and not traced:
        raise RunError("the untraced pass left no time for a traced one")
    attempted = sum(len(r) for _, r in passes)
    failed = sum(not x.ok for _, r in passes for x in r)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(
        untraced)
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "job_env": JOB_ENV,
        "git_commit": _git_commit(root), "source_sha256": _source_digest(root),
        "specs": specs,
        "jobs": [{"command": j.command, "label": j.label, "args": j.args,
                  "report_sha256": first_digest.get(i)}
                 for i, j in enumerate(jobs)],
        "passes": [{"traced": t,
                    "jobs": [{"label": f"{x.job.command} {x.job.label}",
                              "total_s": x.total_s, "setup_s": x.setup_s,
                              "cpu_s": x.cpu_s,
                              "ok": x.ok} for x in r]} for t, r in passes],
        "untraced_targets": sorted({m for _, r in passes for x in r
                                    for m in x.missing}),
        "errors": errors,
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    return record, result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        record, result = run(args, os.getcwd())
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in record["errors"]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
