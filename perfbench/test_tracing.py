"""Tests of the benchmark's own tracing.

    python3 -m pytest perfbench -q

basis-n7 is left out: it runs the same job code as basis-n3 on larger
inputs.
"""

import json
import math
import random
import shutil

import pytest

import run
import tracing
import workloads

TRACED_WORKLOADS = ("basis-n3", "oracle-n3", "cli-cache")


def _run_jobs(workload, api, state, out, tracer=None):
    """Every job's output and every file the jobs wrote under ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    jobs = workload.jobs(api, state, random.Random(0), out)
    if tracer is not None:
        tracer.install(api)
    try:
        outputs = {
            job.id: job.run() if tracer is None else tracer.call("job", job.run)
            for job in jobs
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return jobs, outputs, files


@pytest.fixture(scope="module", params=TRACED_WORKLOADS)
def traced_run(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    (work / "cache").mkdir()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(workloads.CACHE_ENV_VAR, str(work / "cache"))
        workload = workloads.WORKLOADS[request.param]
        api = workloads.import_diffops()
        state = workload.setup(api, work)
        jobs, plain, plain_files = _run_jobs(workload, api, state, work / "out")
        tracer = tracing.Tracer()
        _, traced, traced_files = _run_jobs(workload, api, state, work / "out", tracer)
        yield jobs, plain, plain_files, traced, traced_files, tracer


def test_traced_outputs_equal_untraced_outputs(traced_run):
    jobs, plain, plain_files, traced, traced_files, tracer = traced_run
    assert traced == plain
    assert traced_files == plain_files
    for job in jobs:
        assert job.check(traced[job.id]) == []
    assert {span.name for span in tracer.spans} - {"job"}


def test_self_times_under_almost_commuting_add_up_to_its_total(traced_run):
    *_, tracer = traced_run
    spans = tracer.spans
    own = tracing.self_seconds(spans)
    children: dict = {}
    for i, span in enumerate(spans):
        children.setdefault(span.parent, []).append(i)

    def subtree(i):
        yield i
        for child in children.get(i, ()):
            yield from subtree(child)

    roots = [i for i, span in enumerate(spans) if span.name == "basis.almost_commuting"]
    assert roots
    for i in roots:
        parts = [own[j] for j in subtree(i)]
        assert min(parts) >= -1e-9
        assert math.isclose(sum(parts), spans[i].seconds, rel_tol=1e-9, abs_tol=1e-9)


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    empty = tracing.layer_metrics([], 0, 1.0)
    printed = {name: tracing.unit(name) for name in [*empty, "trace.overhead_frac"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
