"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest steadybench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from layers import per_layer, tail_percentile  # noqa: E402
from tracing import PID, Trace, Tracer, covered_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
#: What a metric or workload name may contain.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Per-layer metrics run.py adds beside those layers.per_layer derives.
RUN_LEVEL = {"op.latency_tail_s", "op.latency_tail_pct",
             "op.latency_tail_samples", "trace.overhead_ratio",
             "trace.unattributed_s"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name, tmp_path):
    def inputs(seed):
        workload = WORKLOADS[name](seed, 20, tmp_path)
        workload.make_inputs()
        return workload.inputs_digest()

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_length_fixes_the_operation_count(name, tmp_path):
    short = WORKLOADS[name](1, 10, tmp_path)
    long = WORKLOADS[name](1, 40, tmp_path)
    assert 1 <= short.op_count <= long.op_count


def test_names_are_well_formed():
    names = [metric["name"]
             for metric in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [workload["name"] for workload in SPEC["workloads"]]
    assert all(METRIC_NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_per_layer_reports_every_declared_metric():
    empty = Trace([], {}, {}, Counter(), 1)
    reported = set(per_layer(empty, {})) | RUN_LEVEL
    assert reported == {metric["name"] for metric in SPEC["per_layer"]}


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    assert tail_percentile(samples) == (90, 90.0, 100)
    value, percentile, count = tail_percentile(list(range(25)))
    assert sum(sample > value for sample in range(25)) == 10
    assert (percentile, count) == (60.0, 25)
    # Too few samples for any percentile with ten beyond: the minimum.
    assert tail_percentile([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_ledger_keeps_the_first_run_as_reference(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "source_digest", lambda: "0" * 64)

    def compare(value):
        ledger = run.Ledger("w", 1, 20)
        mismatches = ledger.compare("counts", {"calls": value})
        ledger.save()
        return mismatches

    assert compare(5) == []
    assert compare(6) != []
    # The reference stays the first run's value, not the latest one.
    assert compare(6) != []
    assert compare(5) == []


def test_covered_length_merges_and_clips():
    intervals = [(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (9.0, 12.0)]
    assert covered_length(intervals, 0.0, 10.0) == 4.0
    assert covered_length([], 0.0, 10.0) == 0.0


def test_self_time_of_nested_and_overlapping_spans():
    def span(sid, parent, start, end, pid=1):
        return (sid, parent, f"s{sid}", pid, 1, start, end, 0.0, None)

    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),          # overlaps span 3
        span(3, 1, 3.0, 6.0, pid=2),   # e.g. a pool worker
        span(4, 2, 2.0, 3.0),          # nested two deep
        span(5, 1, 9.5, 11.0),         # runs past its parent's end
    ]
    trace = Trace(spans, {}, {1: 1.0, 2: 0.5}, Counter(), 1)
    by_id = {s[0]: s for s in spans}
    # 10 s minus the union [1, 6] + [9.5, 10] minus 1 s of leaves.
    assert trace.self_time(by_id[1]) == pytest.approx(3.5)
    assert trace.self_time(by_id[2]) == pytest.approx(3.0 - 1.0 - 0.5)
    assert trace.self_time(by_id[3]) == pytest.approx(3.0)
    assert trace.self_time(by_id[4]) == pytest.approx(1.0)


def test_tracer_spans_and_leaves(tmp_path):
    tracer = Tracer(tmp_path)
    leaf = tracer.leaf("kernel", lambda: None)
    outer = tracer.span("outer", lambda: [leaf() for _ in range(3)])
    outer()
    trace = tracer.merged()
    assert trace.calls("kernel") == 3
    assert trace.calls("outer") == 1
    assert 0.0 <= trace.self_total("outer") <= trace.total("outer")


def test_pool_workers_spill_spans_to_the_parent(tmp_path):
    from repro.faults.lists import lf1_faults
    from repro.march.known import known_march
    from repro.sim import campaign as campaign_module
    from repro.sim import coverage

    original = coverage.qualify_outcomes
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        result = campaign_module.CoverageCampaign(
            known_march("March C-").test, list(lf1_faults()),
            memory_sizes=(4,), workers=2, chunk_size=6).run()
    finally:
        tracer.uninstall()
    assert coverage.qualify_outcomes is original
    assert campaign_module.qualify_outcomes is original
    trace = tracer.merged()
    workers = trace.named("sim.coverage.qualify_outcomes")
    assert len(workers) == 4
    assert all(span[PID] != trace.main_pid for span in workers)
    (supervisor,) = trace.named("sim.supervisor.run")
    assert {span[1] for span in workers} == {supervisor[0]}
    assert trace.attr_sum("sim.coverage.qualify_outcomes", "contexts") \
        == result.contexts_simulated


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "steadybench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, trace):
    out = _run("--workload", name, "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "steadybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "table1_generate", "--seed", "1",
               "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
