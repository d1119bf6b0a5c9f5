"""The benchmark's three workloads.

Each workload turns ``(seed, seconds)`` into a fixed list of
operations of similar cost before anything is timed: the seed picks
the inputs, the run length only picks how many operations there are.
Two runs with the same arguments therefore time the same operations
in the same order, however fast the machine happens to be that minute.

* ``table1_generate`` -- the paper's own job: ``MarchGenerator`` at
  n=3 on stratified Fault List #1 samples (dense kernel, pruner,
  incremental oracle; no store, pool or service).
* ``campaign_sweep`` -- qualification throughput: one
  ``CoverageCampaign`` per march against FL#1 and FL#2 at n=8 and
  n=64 with two pool workers and a fresh on-disk store (sparse and
  bit-parallel kernels, supervisor, store writes; no dense kernel,
  no generator).
* ``service_mix`` -- the served job path: two closed-loop HTTP
  clients against the in-process service (queue, HTTP, JobSpec,
  store reads, diagnosis and BIST; little kernel time).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.generator import MarchGenerator
from repro.faults.lists import (
    fault_list_1,
    fault_list_2,
    faults_by_topology,
)
from repro.faults.operations import read, write
from repro.march.element import AddressOrder, MarchElement
from repro.march.known import ALL_KNOWN
from repro.march.test import MarchTest, parse_march
from repro.service import ServiceClient
from repro.service.jobs import JobRunner, JobSpec, resolve_test
from repro.service.server import start_service
from repro.sim.campaign import CoverageCampaign
from repro.sim.coverage import qualify_test
from repro.store import QualificationStore

#: The fleet document the service's fleet jobs diagnose.
FLEET_DEMO = (Path(__file__).resolve().parent.parent / "examples"
              / "fleet_demo.json")


@dataclass
class OpRecord:
    """One timed operation."""

    index: int
    start: float
    end: float
    thread: int
    ok: bool
    #: Work the operation completed, in the workload's throughput unit.
    work: float = 0.0
    #: What the operation produced, kept for the correctness checks.
    output: object = None
    error: str = ""
    #: Process that ran the operation (a benchmark worker or this one).
    pid: int = field(default_factory=os.getpid)

    @property
    def latency(self) -> float:
        return self.end - self.start


class Workload:
    """Common shape: inputs, passes of timed operations, checks.

    Subclasses set :attr:`nominal_op_s` (the calibrated cost of one
    operation on a 2-CPU host), which fixes the operation count as
    ``round(seconds / nominal_op_s)`` -- a function of the arguments
    only, never of the clock.
    """

    name = ""
    nominal_op_s = 1.0
    min_ops = 2

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.op_count = max(
            self.min_ops, int(round(seconds / self.nominal_op_s)))

    def setup(self) -> None:
        """Build the seeded inputs, then warm the caches."""
        self.make_inputs()
        self.warm_up()

    # Subclass protocol -------------------------------------------------
    def make_inputs(self) -> None:
        """Derive every input from the seed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill the caches the timed operations would otherwise fill."""

    def describe_inputs(self):
        """JSON-ready description of every seeded input."""
        raise NotImplementedError

    def begin_pass(self, tag: str) -> None:
        """Open what one pass needs (a fresh store, a service)."""

    def run_pass(self) -> List[OpRecord]:
        raise NotImplementedError

    def end_pass(self) -> None:
        """Release what :meth:`begin_pass` opened."""

    def counts(self, records: Sequence[OpRecord]) -> Dict[str, float]:
        """Deterministic work counts of one pass."""
        raise NotImplementedError

    def check(self, records: Sequence[OpRecord]) -> List[str]:
        """Verify the outputs of one pass; one message per failure."""
        raise NotImplementedError

    def same_outputs(self, first: Sequence[OpRecord],
                     second: Sequence[OpRecord]) -> List[str]:
        """Messages for operations whose outputs differ between passes."""
        if len(first) != len(second):
            return [f"passes ran {len(first)} and {len(second)} "
                    f"operations"]
        return [
            f"operation {a.index}: output differs between passes"
            for a, b in zip(first, second)
            if self.output_key(a) != self.output_key(b)]

    def output_key(self, record: OpRecord):
        return record.output

    def layer_extras(self, records: Sequence[OpRecord]) -> Dict[str, float]:
        """Per-layer figures the workload measures itself."""
        return {}

    # Shared helpers ----------------------------------------------------
    def inputs_digest(self) -> str:
        """sha256 of a canonical JSON rendering of the inputs."""
        blob = json.dumps(self.describe_inputs(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _timed(self, index: int, fn) -> OpRecord:
        start = perf_counter()
        try:
            work, output = fn()
        except Exception as error:  # noqa: BLE001 -- counted as failed
            end = perf_counter()
            return OpRecord(index, start, end, threading.get_ident(),
                            False, error=f"{type(error).__name__}: "
                                         f"{error}")
        end = perf_counter()
        return OpRecord(index, start, end, threading.get_ident(), True,
                        work, output)


# ----------------------------------------------------------------------
# table1_generate
# ----------------------------------------------------------------------

class Table1Generate(Workload):
    """``MarchGenerator.generate()`` on stratified FL#1 samples.

    Every sample takes :attr:`per_topology` faults from each of LF1,
    LF2aa, LF2av, LF2va and LF3, so samples differ in which faults
    they hold but not in their make-up.

    Operations run on :attr:`workers` benchmark processes forked after
    set-up, each calling ``generate()`` serially; operation ``i`` runs
    on worker ``i % workers``, so each worker's sequence of operations
    is fixed by the seed.  One generate takes about 2.8 s on a 2-CPU
    host.  A single process sees only the speed of the CPU it runs on,
    which on a shared host drifts by a quarter over minutes; two
    workers average both CPUs and time twice the samples per run.
    """

    name = "table1_generate"
    workers = 2
    nominal_op_s = 2.8 / workers
    #: At 12 faults per topology a generate spends about 42 % of its
    #: time in the pruner, as the full FL#1 row does; at 4 it spends
    #: about 36 %.
    per_topology = 12
    memory_size = 3

    def make_inputs(self) -> None:
        groups = list(faults_by_topology(fault_list_1()).values())
        rng = random.Random(self.seed)
        self.samples: List[Tuple] = [
            tuple(fault for group in groups
                  for fault in rng.sample(group, self.per_topology))
            for _ in range(self.op_count)]

    def warm_up(self) -> None:
        # Also the paper's FL#2 row, checked after timing.
        self.fl2_row = MarchGenerator(
            fault_list_2(), name="FL#2 row").generate()

    def describe_inputs(self):
        return [[fault.name for fault in sample]
                for sample in self.samples]

    def run_pass(self) -> List[OpRecord]:
        context = multiprocessing.get_context("fork")
        running = []
        for worker in range(self.workers):
            receive, send = context.Pipe(duplex=False)
            process = context.Process(
                target=self._worker, args=(worker, send),
                name=f"bench-generate-{worker}")
            process.start()
            send.close()
            running.append((receive, process))
        records: List[OpRecord] = []
        for receive, process in running:
            records.extend(receive.recv())
            process.join()
        return sorted(records, key=lambda record: record.index)

    def _worker(self, worker: int, send) -> None:
        """Run operations ``worker, worker + workers, ...`` and send
        their records to the parent."""
        def generate(index: int):
            result = MarchGenerator(
                list(self.samples[index]), name=f"sample {index}",
                memory_size=self.memory_size).generate()
            return 1.0, result

        send.send([
            self._timed(index, lambda index=index: generate(index))
            for index in range(worker, len(self.samples), self.workers)])
        send.close()

    def output_key(self, record: OpRecord):
        if record.output is None:
            return None
        return record.output.test.notation(ascii_only=True)

    def counts(self, records):
        done = [r.output for r in records if r.ok]
        return {
            "attempted": len(records),
            "march_length_n": (
                statistics.fmean(r.complexity for r in done)
                if done else 0.0),
            "contexts": sum(r.report.contexts_simulated for r in done),
        }

    def check(self, records):
        failures = []
        if not (self.fl2_row.complete and self.fl2_row.complexity == 9):
            failures.append(
                f"FL#2 row generated {self.fl2_row.complexity}n, "
                f"complete={self.fl2_row.complete}; the paper has 9n")
        for record in records:
            if not record.ok:
                failures.append(f"sample {record.index}: {record.error}")
                continue
            test = record.output.test
            report = qualify_test(
                test, self.samples[record.index], self.memory_size,
                backend="sparse")
            if not (record.output.complete and report.complete):
                failures.append(
                    f"sample {record.index}: {test.notation()} is not "
                    f"complete on the sparse kernel")
        return failures


# ----------------------------------------------------------------------
# campaign_sweep
# ----------------------------------------------------------------------

def random_march(rng: random.Random, complexity: int,
                 name: str) -> MarchTest:
    """A fault-free consistent march of exactly *complexity* operations.

    Starts with ``⇕(w0)``; every later read expects the value the
    element sequence last wrote.  Later elements run ``⇑`` or ``⇓``
    only: each ``⇕`` element forks every pending simulation context
    into both directions, and random ``⇕`` elements made the cost of
    one qualification vary threefold.
    """
    elements = [MarchElement(AddressOrder.ANY, (write(0),))]
    state = 0
    length = 1
    orders = (AddressOrder.UP, AddressOrder.DOWN)
    while length < complexity:
        size = rng.randint(1, min(4, complexity - length))
        ops = []
        for _ in range(size):
            if rng.random() < 0.5:
                ops.append(read(state))
            else:
                state = rng.randint(0, 1)
                ops.append(write(state))
        elements.append(MarchElement(rng.choice(orders), tuple(ops)))
        length += size
    return MarchTest(name, tuple(elements))


class CampaignSweep(Workload):
    """One ``CoverageCampaign.run()`` per march, FL#1 and FL#2 at
    n=8 and n=64, two workers, one fresh on-disk store per pass."""

    name = "campaign_sweep"
    nominal_op_s = 0.9
    sizes = (8, 64)
    workers = 2
    random_complexity = (12, 20)

    def make_inputs(self) -> None:
        self.fault_lists = {
            "1": list(fault_list_1()), "2": list(fault_list_2())}
        rng = random.Random(self.seed)
        known = [entry.test for entry in ALL_KNOWN.values()]
        rng.shuffle(known)
        marches = known[:self.op_count]
        low, high = self.random_complexity
        for index in range(self.op_count - len(marches)):
            # Lengths cycle through the range, so every seed's mean
            # march length is the same.
            marches.append(random_march(
                rng, low + index % (high - low + 1),
                f"random march {index}"))
        rng.shuffle(marches)
        self.marches = marches
        self.store: Optional[QualificationStore] = None

    def warm_up(self) -> None:
        # One serial element pass fills this process's placement
        # caches, which every forked worker inherits, and imports the
        # lazily loaded kernels.
        CoverageCampaign(
            parse_march("c(w0)", name="warm-up"), self.fault_lists,
            memory_sizes=self.sizes).run()

    def describe_inputs(self):
        return [[m.name, m.notation(ascii_only=True)]
                for m in self.marches]

    def begin_pass(self, tag: str) -> None:
        path = self.workdir / f"{tag}-campaign.db"
        if path.exists():
            path.unlink()
        self.store = QualificationStore(str(path))

    def end_pass(self) -> None:
        self.store.close()
        self.store = None

    def run_pass(self) -> List[OpRecord]:
        def qualify(march: MarchTest):
            result = CoverageCampaign(
                [march], self.fault_lists, memory_sizes=self.sizes,
                workers=self.workers, store=self.store).run()
            return float(result.contexts_simulated), result

        return [self._timed(i, lambda m=m: qualify(m))
                for i, m in enumerate(self.marches)]

    def output_key(self, record: OpRecord):
        if record.output is None:
            return None
        return record.output.report_json()

    def counts(self, records):
        return {
            "attempted": len(records),
            "march_length_n": statistics.fmean(
                m.complexity for m in self.marches),
            "contexts": sum(int(r.work) for r in records if r.ok),
        }

    def check(self, records):
        failures = [f"march {r.index}: {r.error}"
                    for r in records if not r.ok]
        for record in records:
            if record.ok and len(record.output.entries) != 4:
                failures.append(
                    f"march {record.index}: "
                    f"{len(record.output.entries)} entries, expected 4")
        first = records[0]
        if not first.ok:
            return failures
        served = first.output.report_dict()["entries"]
        for size in self.sizes:
            reference = CoverageCampaign(
                [self.marches[0]], self.fault_lists,
                memory_sizes=(size,), backend="dense").run()
            expected = json.dumps(reference.report_dict()["entries"])
            got = json.dumps(
                [e for e in served if e["memory_size"] == size])
            if got != expected:
                failures.append(
                    f"march 0 at n={size} differs from the serial "
                    f"dense reference")
        return failures


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

class ServiceMix(Workload):
    """Two closed-loop HTTP clients against the in-process service.

    Each client owns a disjoint set of memory sizes, so every store
    read or write one client causes is ordered by that client's own
    closed loop: the store's hit and miss counts repeat exactly even
    though the two clients race.  Each client's list repeats the
    pattern :attr:`pattern`:

    * ``F`` a fresh small campaign (one new test x list x size cell);
    * ``D`` a dictionary build and ``B`` a BIST compile, on new cells;
    * ``O`` a campaign over one stored cell plus one new cell;
    * ``X`` an exact duplicate of an earlier job of the same client,
      which must coalesce.

    Both clients also submit the same fleet job once
    (``examples/fleet_demo.json``); whichever comes second coalesces.
    """

    name = "service_mix"
    nominal_op_s = 0.06
    min_ops = 20
    pattern = "FFDFBOXFOX"
    client_sizes = (tuple(range(3, 17, 2)), tuple(range(4, 17, 2)))
    fault_lists = ("lf1", "lf2av", "lf2va", "simple")
    #: The fleet demo's march; no other job uses it, so the fleet
    #: job's store rows are its own.
    fleet_march = "March C-"
    #: Status poll interval.  Every poll is one more HTTP request,
    #: served on a new server thread that competes for the interpreter
    #: lock with the job threads.  On a 2-CPU host, six runs of one
    #: seed read median latencies of 57 to 75 ms when polling every
    #: 10 ms; five seeds read 75 to 81 ms when polling every 20 ms.
    poll_s = 0.02

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        tests = sorted(
            name for name in ALL_KNOWN if name != self.fleet_march)
        fleet = json.loads(FLEET_DEMO.read_text(encoding="utf-8"))
        per_client = self.op_count // 2
        self.jobs: List[List[dict]] = [
            self._client_jobs(rng, tests, sizes, fleet, per_client)
            for sizes in self.client_sizes]
        self.specs = {
            JobSpec.from_dict(job).job_id: job
            for jobs in self.jobs for job in jobs}
        self.handle = None

    def _client_jobs(self, rng, tests, sizes, fleet, count):
        """One client's job list.

        New cells take the marches round-robin (in a seeded order), so
        every seed submits each march about equally often.
        """
        free = {(test, label, size) for test in tests
                for label in self.fault_lists for size in sizes}
        order = list(tests)
        rng.shuffle(order)
        #: Cells some campaign of this client already qualified.
        stored: List[Tuple[str, str, int]] = []
        jobs: List[dict] = []
        fleet_at = rng.randrange(count)
        new_cells = 0

        def take(test, where=None):
            options = sorted(
                cell for cell in free if cell[0] == test
                and (where is None or cell[1:] == where))
            if not options:
                return None
            cell = rng.choice(options)
            free.remove(cell)
            return cell

        while len(jobs) < count:
            slot = self.pattern[len(jobs) % len(self.pattern)]
            earlier = [job for job in jobs if job["kind"] != "fleet"]
            if len(jobs) == fleet_at:
                jobs.append({"kind": "fleet", "fleet": fleet})
                continue
            if slot == "X" and earlier:
                jobs.append(dict(rng.choice(earlier)))
                continue
            test = order[new_cells % len(order)]
            new_cells += 1
            if slot == "O" and stored:
                old_test, label, size = rng.choice(stored)
                cell = take(test, (label, size))
                if cell is not None and old_test != test:
                    stored.append(cell)
                    jobs.append({"kind": "campaign",
                                 "tests": [old_test, test],
                                 "fault_lists": [label],
                                 "sizes": [size]})
                    continue
                if cell is not None:
                    free.add(cell)
            _, label, size = take(test)
            kind = {"D": "dictionary", "B": "bist"}.get(slot, "campaign")
            if kind == "campaign":
                stored.append((test, label, size))
            jobs.append({"kind": kind, "tests": [test],
                         "fault_lists": [label], "sizes": [size]})
        return jobs

    def describe_inputs(self):
        return self.jobs

    def begin_pass(self, tag: str) -> None:
        path = self.workdir / f"{tag}-service.db"
        if path.exists():
            path.unlink()
        # The rate limiter is sized above what two closed-loop
        # clients can send, so no operation is refused by design.
        self.handle = start_service(
            store_path=str(path), job_workers=2, rate=1000.0,
            burst=1000)

    def end_pass(self) -> None:
        service = self.handle.service
        self.service_metrics = service.metrics()
        self.job_records = {
            job_id: service.job(job_id) for job_id in self.specs}
        self.handle.stop()
        self.handle = None

    def run_pass(self) -> List[OpRecord]:
        url = self.handle.url
        results: List[List[OpRecord]] = [[] for _ in self.jobs]

        def client_loop(client_index: int) -> None:
            client = ServiceClient(url, client_id=f"bench-{client_index}")
            base = client_index * len(self.jobs[0])
            for offset, job in enumerate(self.jobs[client_index]):
                record = self._timed(
                    base + offset, lambda job=job: self._round_trip(
                        client, job))
                results[client_index].append(record)

        threads = [threading.Thread(target=client_loop, args=(index,),
                                    name=f"bench-client-{index}")
                   for index in range(len(self.jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [record for client in results for record in client]

    def _round_trip(self, client: ServiceClient, job: dict):
        wall_start = time.time()
        document = client.submit(job)
        final = client.wait(document["id"], poll=self.poll_s)
        if final["status"] != "done":
            raise RuntimeError(
                f"job {document['id']} {final['status']}: "
                f"{final.get('error', '')}")
        payload = client.result_bytes(document["id"])
        return 1.0, {"id": document["id"], "bytes": payload,
                     "wall": (wall_start, time.time())}

    def output_key(self, record: OpRecord):
        return None if record.output is None else record.output["bytes"]

    def counts(self, records):
        # Distinct marches: every seed submits each known march, so
        # the figure does not depend on how often the seed picked each.
        tests = {
            text for job in self.specs.values()
            for text in (job.get("tests") or [self.fleet_march])}
        ids = {r.output["id"] for r in records if r.ok}
        return {
            "attempted": len(records),
            "march_length_n": statistics.fmean(
                resolve_test(text).complexity for text in sorted(tests)),
            "contexts": sum(
                self.job_records[job_id].result.simulations
                for job_id in ids
                if self.job_records[job_id].result is not None),
            "service.coalesced": self.service_metrics["jobs_coalesced"],
            "service.refused": (
                self.service_metrics["rejected_rate_limited"]
                + self.service_metrics["rejected_queue_full"]),
        }

    def check(self, records):
        failures = [f"job {r.index}: {r.error}"
                    for r in records if not r.ok]
        served = {r.output["id"]: r.output["bytes"]
                  for r in records if r.ok}
        runner = JobRunner()
        for job_id, payload in served.items():
            spec = JobSpec.from_dict(self.specs[job_id])
            if runner.run(spec).report_bytes != payload:
                failures.append(
                    f"job {job_id}: served bytes differ from a local "
                    f"JobRunner.run")
        distinct = len(self.specs)
        expected = len(records) - distinct
        if self.service_metrics["jobs_coalesced"] != expected:
            failures.append(
                f"{self.service_metrics['jobs_coalesced']} submissions "
                f"coalesced, expected {expected}")
        return failures

    def layer_extras(self, records):
        queue_wait = sum(
            record.started_at - record.submitted_at
            for record in self.job_records.values()
            if record is not None and record.started_at is not None)
        overhead = 0.0
        for op in records:
            if not op.ok:
                continue
            lo, hi = op.output["wall"]
            job = self.job_records[op.output["id"]]
            server = max(0.0, min(hi, job.finished_at)
                         - max(lo, job.submitted_at))
            overhead += max(0.0, (hi - lo) - server)
        return {"service.queue_wait_s": queue_wait,
                "service.http_overhead_s": overhead}


WORKLOADS = {
    workload.name: workload
    for workload in (Table1Generate, CampaignSweep, ServiceMix)
}
