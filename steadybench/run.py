"""Run one workload of the steady benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 steadybench/run.py --workload table1_generate --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same operations a second time with spans
installed and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

A run:

1. measures set-up time in :data:`SETUP_REPEATS` fresh interpreters
   (start to ready for the first operation) and keeps the median;
2. sets up in this process, prints the digest of the seeded inputs,
   and times the fixed list of operations (tracing off);
3. with ``--trace 1``, repeats the operations with tracing on;
4. checks every output outside the timed interval, checks that the
   deterministic counts repeat between passes and against earlier
   runs with the same arguments (``.steadybench/ledger/``), and
   counts each mismatch as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Seconds a run waits for its pool workers to exit.
CHILD_WAIT_S = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def metric_table():
    """name -> unit for every metric ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def wait_children() -> None:
    """Reap every pool worker this process started."""
    deadline = time.monotonic() + CHILD_WAIT_S
    while True:
        children = multiprocessing.active_children()
        if not children:
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(
                f"{len(children)} worker process(es) still running")
        for child in children:
            child.join(timeout=remaining)


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its 'ready' line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=CHILD_WAIT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} ({line.strip()!r})")
    return elapsed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def throughput(records) -> float:
    done = [r for r in records if r.ok]
    if not done:
        return 0.0
    wall = max(r.end for r in records) - min(r.start for r in records)
    return sum(r.work for r in done) / wall


def source_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    sha = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        sha.update(str(path.relative_to(ROOT)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


class Ledger:
    """Deterministic counts of earlier runs of the same code with the
    same arguments."""

    def __init__(self, workload: str, seed: int, seconds: float):
        directory = ROOT / ".steadybench" / "ledger"
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / (
            f"{workload}-seed{seed}-s{seconds:g}-"
            f"{source_digest()[:16]}.json")
        self.entry = (json.loads(self.path.read_text("utf-8"))
                      if self.path.exists() else {})

    def compare(self, section: str, counts: dict) -> list:
        """Mismatches against the first recorded run; a name seen for
        the first time is recorded and kept as the reference."""
        reference = self.entry.setdefault(section, {})
        mismatches = []
        for name, value in counts.items():
            first = reference.setdefault(name, value)
            if first != value:
                mismatches.append(
                    f"{name}: {value!r} here, {first!r} in the first "
                    f"run with the same seed")
        return mismatches

    def save(self) -> None:
        self.path.write_text(json.dumps(self.entry, indent=1, sort_keys=True))


def run(args) -> dict:
    from layers import per_layer, tail_percentile, unattributed
    from tracing import Tracer
    from workloads import WORKLOADS

    end_units, layer_units = metric_table()
    setup_samples = [probe_setup(args) for _ in range(SETUP_REPEATS)]

    workdir = ROOT / ".steadybench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](
            args.seed, args.seconds, workdir)
        workload.setup()
        inputs = workload.inputs_digest()
        print(f"inputs {args.workload} seed={args.seed} "
              f"ops={workload.op_count} sha256={inputs}", flush=True)

        workload.begin_pass("untraced")
        untraced = workload.run_pass()
        workload.end_pass()
        wait_children()
        rss = peak_rss_mb()
        counts = workload.counts(untraced)
        failures = workload.check(untraced)

        ledger = Ledger(args.workload, args.seed, args.seconds)
        failures += ledger.compare("inputs", {"sha256": inputs})
        failures += ledger.compare("counts", counts)

        if not args.trace:
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "latency_p50_s": statistics.median(
                    r.latency for r in untraced if r.ok),
                "throughput_per_s": throughput(untraced),
                "peak_rss_mb": rss,
                "march_length_n": counts["march_length_n"],
            }
            units = end_units
        else:
            tracer = Tracer(workdir / "spans")
            tracer.install()
            try:
                workload.begin_pass("traced")
                traced = workload.run_pass()
                workload.end_pass()
            finally:
                tracer.uninstall()
            wait_children()
            traced_counts = workload.counts(traced)
            failures += [
                f"{name}: {value!r} traced, {counts[name]!r} untraced"
                for name, value in traced_counts.items()
                if counts.get(name) != value]
            failures += workload.same_outputs(untraced, traced)
            trace = tracer.merged()
            metrics = per_layer(trace, {
                **workload.layer_extras(traced), **traced_counts})
            tail, percentile, samples = tail_percentile(
                [r.latency for r in untraced if r.ok])
            metrics.update({
                "op.latency_tail_s": tail,
                "op.latency_tail_pct": percentile,
                "op.latency_tail_samples": samples,
                "trace.overhead_ratio": (
                    throughput(traced) / throughput(untraced)),
                "trace.unattributed_s": unattributed(trace, traced),
            })
            failures += ledger.compare("per_layer", {
                name: metrics[name] for name, unit in layer_units.items()
                if unit == "count"})
            units = layer_units
        ledger.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not failures,
        "attempted": len(untraced),
        "failed": min(len(untraced), len(failures)),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def setup_probe(args) -> None:
    from workloads import WORKLOADS

    workdir = ROOT / ".steadybench" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](
            args.seed, args.seconds, workdir)
        workload.setup()
        workload.begin_pass("probe")
        print("ready", flush=True)
        workload.end_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as error:
        print(f"error: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
