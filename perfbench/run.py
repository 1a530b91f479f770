"""The diffops benchmark.

    python3 perfbench/run.py --workload basis-n7 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; diffops is imported from its
``src/`` and nothing needs installing.  One workload runs in one
single-threaded process.  ``--workload all`` runs every workload, each in
its own process, one after the other.

A run sets up the workload several times (import, warm-up and, for
cli-cache, cache pre-population) and reports the median as ``setup_s``.
It then runs passes over the workload's job list until ``--seconds`` have
gone by, checking every job's output as soon as the job ends.  With ``--trace 0``
it reports the end-to-end metrics (``pass_s``, ``largest_job_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics of the traced passes (see
``tracing.py``), with their spans written to ``.perfbench/``.

``DIFFOPS_CACHE_DIR`` points at a fresh directory under ``.perfbench/``,
so the user's cache is never read or written.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (jobs
whose output was wrong or that raised) and ``metrics``.  The line before
it is a report with the seed, the environment, sample counts and the
first problems found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

SETUP_REPEATS = 5
OUT_DIR = workloads.ROOT / ".perfbench"

END_TO_END_UNITS = {"pass_s": "s", "largest_job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def environment(api) -> dict:
    rational = api.ratio.Rational
    try:
        commit = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(workloads.ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "rational": f"{rational.__module__}.{rational.__qualname__}",
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def tail_percentile(samples: list) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    beyond = 10
    if len(samples) <= beyond:
        return None
    ordered = sorted(samples)
    rank = len(ordered) - beyond - 1
    return {"p": 100 * (rank + 1) / len(ordered), "value": ordered[rank]}


def summary(samples: list) -> dict:
    return {
        "median": statistics.median(samples),
        "tail": tail_percentile(samples),
        "samples": len(samples),
    }


def set_up(workload, work: Path):
    """SETUP_REPEATS fresh imports, warm-ups and cache pre-populations;
    the last one's modules and state serve the measured passes."""
    seconds = []
    for k in range(SETUP_REPEATS):
        cache_dir = work / f"cache-{k}"
        cache_dir.mkdir()
        os.environ[workloads.CACHE_ENV_VAR] = str(cache_dir)
        gc.collect()
        t0 = perf_counter()
        api = workloads.import_diffops()
        state = workload.setup(api, work)
        seconds.append(perf_counter() - t0)
        if k:
            shutil.rmtree(work / f"cache-{k - 1}")
    return api, state, seconds


def _problems(check, *args) -> list:
    try:
        return check(*args)
    except Exception:
        return [traceback.format_exc(limit=3)]


def run_pass(workload, api, state, rng, out: Path, tracer, index: int):
    """Time each job of one pass, checking its output as soon as it ends.

    Each job starts after a full garbage collection and its output is
    dropped once checked, so a job's time does not depend on where the
    shuffle put it.  The pass time is the sum of the job times; collection,
    checks and tracer installation are not timed.
    """
    jobs = workload.jobs(api, state, rng, out)
    times, problems = {}, {}
    for job in jobs:
        gc.collect()
        if tracer is not None:
            tracer.job = f"{index}:{job.id}"
            tracer.install(api)
        t0 = perf_counter()
        try:
            output = job.run() if tracer is None else tracer.call("job", job.run)
        except Exception:
            output, found = None, [traceback.format_exc(limit=3)]
        else:
            found = None
        times[job.id] = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        found = found or _problems(job.check, output)
        if found:
            problems[job.id] = found
        del output
    found = _problems(workload.check_pass, api, state, out)
    if found:
        # A pass-level fault makes every job of the pass wrong.
        problems.update({job.id: found for job in jobs})
    shutil.rmtree(out, ignore_errors=True)
    return sum(times.values()), times, problems, len(jobs)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR))
    try:
        api, state, setup_seconds = set_up(workload, work)
        rng = random.Random(seed)
        tracer = tracing.Tracer() if trace else None
        plain, traced, largest, layers = [], [], [], []
        attempted, failed, errors = 0, 0, []
        start = perf_counter()
        index = 0
        while index < (2 if trace else 1) or perf_counter() - start < seconds:
            traced_pass = trace and index % 2 == 1
            first = len(tracer.spans) if traced_pass else 0
            wall, times, problems, count = run_pass(
                workload, api, state, rng, work / f"pass-{index}",
                tracer if traced_pass else None, index,
            )
            attempted += count
            failed += len(problems)
            errors += [f"pass {index} {job}: {p}" for job, ps in problems.items() for p in ps]
            if traced_pass:
                traced.append(wall)
                layers.append(tracing.layer_metrics(tracer.spans, first, wall))
            else:
                plain.append(wall)
                largest.append(times[workload.largest])
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "environment": environment(api),
            "pass_s": summary(plain),
            "largest_job": {"id": workload.largest, **summary(largest)},
            "setup_s": {"median": statistics.median(setup_seconds), "samples": setup_seconds},
            "error_rate": failed / attempted,
            "errors": errors[:5],
        }
        if trace:
            metrics = {
                key: statistics.median(pass_metrics[key] for pass_metrics in layers)
                for key in layers[0]
            }
            metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain)
            units = {key: tracing.unit(key) for key in metrics}
            trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
            tracer.write(trace_path, {"workload": name, "seed": seed})
            report["trace_file"] = str(trace_path.relative_to(workloads.ROOT))
            report["traced_pass_s"] = summary(traced)
        else:
            metrics = {
                "pass_s": statistics.median(plain),
                "largest_job_s": statistics.median(largest),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setup_seconds),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, value in metrics.items():
        print(f"{name:10} {key:48} {value:.6g} {units[key]}")
    print(f"{name:10} {'error_rate':48} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=600 + 2 * args.seconds)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exited with {child.returncode} without a result", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import diffops from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
