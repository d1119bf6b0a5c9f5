"""Parallel batched coverage campaigns.

The paper's validation flow ("all generated Tests have been fault
simulated", Section 1) qualifies one march test against one fault list
at a time.  A :class:`CoverageCampaign` scales that up: it qualifies
*many tests × many fault lists × many memory sizes × many LF3
layouts* in one call, fanning the work out over processes with
:class:`concurrent.futures.ProcessPoolExecutor`.

Guarantees:

* **determinism** -- results come back in job order (tests × lists ×
  sizes × layouts) regardless of worker count or completion order;
* **exactness** -- per-fault outcomes are independent of how a fault
  list is partitioned, so a ``workers=N`` campaign reports exactly
  what the serial oracle reports; ``workers=1`` *is* the serial path
  (:func:`repro.sim.coverage.qualify_test`, no pool, no chunking).

The work unit shipped to a worker is one ``(job, fault-chunk)`` pair;
chunking is by fault (:func:`repro.sim.batch.auto_chunk_size`) so a
single huge list still spreads across the pool.

Parallel execution is supervised (:mod:`repro.sim.supervisor`):
chunks get wall-clock timeouts, bounded retries, pool respawn on
worker crashes, incremental chunk-level store checkpoints, and a
degradation ladder down to in-process serial execution -- with every
recovery recorded in :attr:`CampaignResult.failure_report`.  The
chaos harness (:mod:`repro.sim.chaos`, ``--chaos`` on the CLI)
injects worker failures deterministically to prove recovered runs
byte-identical to the undisturbed serial oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.faults.backgrounds import (
    Background,
    BackgroundsSpec,
    background_str,
)
from repro.march.test import MarchTest
from repro.sim.batch import auto_chunk_size, chunked
from repro.sim.coverage import (
    CoverageReport,
    QualifyOutcome,
    TargetFault,
    normalize_word_mode,
    qualify_outcomes,
    report_from_outcomes,
)
from repro.sim.chaos import ChaosSpec, parse_chaos
from repro.sim.placements import DEFAULT_MEMORY_SIZE, LF3_LAYOUTS
from repro.sim.backends import check_backend
from repro.sim.supervisor import (
    FailureReport,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
)
from repro.store import (
    QualificationStore,
    decode_outcomes,
    encode_outcomes,
    fault_list_id,
    open_store,
    qualification_key,
)


@dataclass(frozen=True)
class CampaignJob:
    """One qualification unit: a test against a list in one geometry.

    ``width``/``backgrounds`` carry the campaign's word mode into each
    job record (``memory_size`` counts words when ``width > 1``);
    ``backgrounds`` is ``None`` on the bit path.
    """

    test: MarchTest
    fault_list: str
    memory_size: int
    lf3_layout: str
    width: int = 1
    backgrounds: Optional[Tuple[Background, ...]] = None

    def describe(self) -> str:
        text = (
            f"{self.test.name} vs {self.fault_list} "
            f"(n={self.memory_size}, lf3={self.lf3_layout}")
        if self.backgrounds is not None:
            text += (
                f", width={self.width}, "
                f"backgrounds={len(self.backgrounds)}")
        return text + ")"


@dataclass
class CampaignEntry:
    """A job together with its coverage report."""

    job: CampaignJob
    report: CoverageReport

    def to_dict(self) -> dict:
        """Timing-free, JSON-ready form (stable across worker counts).

        This is the serialization the benchmark regression gate
        compares byte-for-byte between serial and parallel runs.
        """
        return {
            "test": self.job.test.name,
            "notation": self.job.test.notation(ascii_only=True),
            "fault_list": self.job.fault_list,
            "memory_size": self.job.memory_size,
            "lf3_layout": self.job.lf3_layout,
            "width": self.job.width,
            "backgrounds": (
                None if self.job.backgrounds is None
                else [background_str(bg) for bg in self.job.backgrounds]
            ),
            "total": self.report.total,
            "coverage": self.report.coverage,
            "complete": self.report.complete,
            "contexts_simulated": self.report.contexts_simulated,
            "detected": self.report.detected_names,
            "escapes": [
                {
                    "fault": record.fault.name,
                    "instance": record.instance.name,
                    "resolution": list(record.resolution),
                    "background": (
                        None if record.background is None
                        else background_str(record.background)
                    ),
                }
                for record in self.report.escapes
            ],
        }


@dataclass
class CampaignResult:
    """Deterministically ordered outcome of a campaign run."""

    entries: List[CampaignEntry] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    #: Jobs served from the qualification store without simulating /
    #: jobs that had to simulate (both 0 when no store was attached).
    store_hits: int = 0
    store_misses: int = 0
    #: Contexts simulated by *this* run.  Store hits replay their
    #: stored context counts into :attr:`contexts_simulated` (the
    #: report is byte-identical either way), so a fully warm run
    #: reports 0 here -- the number the service's coalescing and
    #: zero-simulation guarantees are audited against.
    contexts_executed: int = 0
    #: The ``(index, count)`` shard this result covers (``None`` for a
    #: full, unsharded run).
    shard: Optional[Tuple[int, int]] = None
    #: Recovery log of the supervised execution path (``None`` on the
    #: plain serial path).  Timing/recovery bookkeeping only -- never
    #: part of :meth:`report_dict`, so byte-identity is untouched.
    failure_report: Optional[FailureReport] = None

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def reports(self) -> List[CoverageReport]:
        return [entry.report for entry in self.entries]

    @property
    def complete(self) -> bool:
        """``True`` when every job reached 100 % coverage."""
        return all(entry.report.complete for entry in self.entries)

    @property
    def contexts_simulated(self) -> int:
        """Total (context, element, direction) simulations executed."""
        return sum(
            entry.report.contexts_simulated for entry in self.entries)

    @property
    def contexts_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.contexts_simulated / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "contexts_simulated": self.contexts_simulated,
            "contexts_per_second": self.contexts_per_second,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "shard": None if self.shard is None else list(self.shard),
            "failure_report": (
                None if self.failure_report is None
                else self.failure_report.to_dict()),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def report_dict(self) -> dict:
        """The deterministic portion of the result: the entries only.

        Independent of worker count, wall time, store hit ratio and
        sharding bookkeeping -- this is the serialization the
        byte-identity guarantees quantify over (cold == warm,
        sharded-then-merged == unsharded serial).
        """
        return {"entries": [entry.to_dict() for entry in self.entries]}

    def report_json(self, indent: int = 2) -> str:
        """Canonical JSON of :meth:`report_dict` (byte-comparable)."""
        return json.dumps(self.report_dict(), indent=indent)

    def render(self) -> str:
        """Plain-text result table (one row per job)."""
        from repro.analysis.table import TextTable

        table = TextTable([
            "March Test", "O(n)", "Fault List", "n", "W", "LF3",
            "Cov %", "Detected", "Escaped",
        ])
        for entry in self.entries:
            report = entry.report
            table.add_row([
                entry.job.test.name,
                f"{entry.job.test.complexity}n",
                entry.job.fault_list,
                str(entry.job.memory_size),
                str(entry.job.width),
                entry.job.lf3_layout,
                f"{100.0 * report.coverage:.1f}",
                str(len(report.detected_names)),
                str(len(report.escaped_faults)),
            ])
        return table.render()

    def summary(self) -> str:
        jobs = len(self.entries)
        complete = sum(1 for e in self.entries if e.report.complete)
        text = (
            f"{jobs} jobs ({complete} complete) in "
            f"{self.wall_seconds:.2f}s with {self.workers} worker(s); "
            f"{self.contexts_simulated} contexts "
            f"({self.contexts_per_second:,.0f}/s)")
        if self.shard is not None:
            text += f"; shard {self.shard[0]}/{self.shard[1]}"
        if self.store_hits or self.store_misses:
            text += (
                f"; store: {self.store_hits} hit(s), "
                f"{self.store_misses} miss(es)")
        if self.failure_report is not None:
            if self.failure_report.chunk_hits:
                text += (
                    f"; {self.failure_report.chunk_hits} "
                    f"chunk(s) resumed")
            if self.failure_report:
                text += f"; {self.failure_report.summary()}"
        return text


class CoverageCampaign:
    """Qualify many march tests over many fault lists, in parallel.

    Args:
        tests: the march tests to qualify (a single test is accepted).
        fault_lists: either a mapping of label -> fault sequence, or a
            bare fault sequence (labelled ``"faults"``).
        memory_sizes: simulated memory sizes to sweep.
        lf3_layouts: three-cell placement policies to sweep (see
            :data:`repro.sim.placements.LF3_LAYOUTS`).
        workers: process count.  ``1`` (default) runs today's serial
            oracle path in-process -- no pool, no chunking; ``N > 1``
            fans fault chunks out over a process pool with results
            merged back in deterministic job order.
        exhaustive_limit: ``⇕`` resolution threshold for the oracle.
        chunk_size: faults per pool task (default: sized so each
            worker gets roughly four chunks per job).
        backend: simulation backend selector (``"auto"`` or any name
            from :func:`repro.sim.backends.backend_names`).  Reports
            are byte-identical across backends -- the sparse and
            bit-parallel kernels are exact replacements for the dense
            every-cell walk.
        width: bits per word; ``width > 1`` (or explicit
            *backgrounds*) runs every job word-oriented: memory sizes
            count words, placements include intra-word lane layouts
            and each test runs once per data background (coverage
            aggregated across backgrounds).  Both backends remain
            byte-identical in word mode.
        backgrounds: word-mode background set (a named set --
            ``"standard"``, ``"marching"``, ``"solid"`` -- or explicit
            patterns; default: the standard ``ceil(log2 W) + 1`` set).
        store: opt-in qualification store (a
            :class:`repro.store.QualificationStore` or a database
            path).  Jobs whose content address is already stored skip
            simulation entirely -- their reports are reconstructed
            from the stored outcomes and are byte-identical to a live
            run; misses simulate (serially or across the pool) and are
            recorded, which is also how an interrupted campaign
            resumes: re-running the same campaign against the same
            store only simulates the missing cells.
        timeout: per-chunk wall-clock budget in seconds for supervised
            (pool) execution; a chunk past its budget is retried on a
            fresh pool.  Ignored on the plain serial path.
        policy: full :class:`repro.sim.supervisor.SupervisorPolicy`
            (retry counts, backoff, degradation thresholds); *timeout*
            overrides the policy's own when both are given.
        chaos: deterministic fault injection -- a
            :class:`repro.sim.chaos.ChaosSpec` or a spec string like
            ``"crash=0.3,poison=0.2,seed=7"``.  Chaos forces the
            supervised path even at ``workers=1`` so disturbances land
            in worker processes; recovery keeps the report
            byte-identical to the undisturbed run.
        shard: deterministic job partition ``(index, count)`` with
            1-based *index*: this run executes only the jobs whose
            position in :meth:`jobs` order is congruent to
            ``index - 1`` modulo *count*.  The *count* shards are a
            disjoint cover of the full job list, so N workers each
            running one shard against private stores, merged with
            :meth:`repro.store.QualificationStore.merge`, yield a
            store from which a full resumed campaign reports
            byte-identically to an unsharded serial run.
    """

    def __init__(
        self,
        tests: Union[MarchTest, Sequence[MarchTest]],
        fault_lists: Union[
            Mapping[str, Sequence[TargetFault]], Sequence[TargetFault]],
        *,
        memory_sizes: Sequence[int] = (DEFAULT_MEMORY_SIZE,),
        lf3_layouts: Sequence[str] = ("straddle",),
        workers: int = 1,
        exhaustive_limit: int = 6,
        chunk_size: Optional[int] = None,
        backend: str = "auto",
        width: int = 1,
        backgrounds: Optional[BackgroundsSpec] = None,
        store: Union[QualificationStore, str, None] = None,
        shard: Optional[Tuple[int, int]] = None,
        timeout: Optional[float] = None,
        policy: Optional[SupervisorPolicy] = None,
        chaos: Union[ChaosSpec, str, None] = None,
    ):
        if isinstance(tests, MarchTest):
            tests = [tests]
        self.tests: List[MarchTest] = list(tests)
        if not self.tests:
            raise ValueError("a campaign needs at least one march test")
        if isinstance(fault_lists, Mapping):
            self.fault_lists: Dict[str, List[TargetFault]] = {
                label: list(faults)
                for label, faults in fault_lists.items()
            }
        else:
            self.fault_lists = {"faults": list(fault_lists)}
        if not self.fault_lists:
            raise ValueError("a campaign needs at least one fault list")
        for label, faults in self.fault_lists.items():
            if not faults:
                raise ValueError(f"fault list {label!r} is empty")
        self.width, self.backgrounds = normalize_word_mode(
            width, backgrounds)
        self.memory_sizes = tuple(memory_sizes)
        if not self.memory_sizes:
            raise ValueError("a campaign needs at least one memory size")
        widest_per_list = {
            label: max(fault.cells for fault in faults)
            for label, faults in self.fault_lists.items()
        }
        for size in self.memory_sizes:
            if size < 1:
                raise ValueError(f"memory size {size} must be positive")
            for label, widest in widest_per_list.items():
                # Word mode can host a fault intra-word even when the
                # word count cannot spread its roles across words.
                if size < widest and self.width < widest:
                    raise ValueError(
                        f"memory size {size} cannot host the "
                        f"{widest}-cell faults of list {label!r}")
        for layout in lf3_layouts:
            if layout not in LF3_LAYOUTS:
                raise ValueError(
                    f"unknown LF3 layout {layout!r}; "
                    f"choose from {LF3_LAYOUTS}")
        self.lf3_layouts = tuple(lf3_layouts)
        if not self.lf3_layouts:
            raise ValueError("a campaign needs at least one LF3 layout")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.exhaustive_limit = exhaustive_limit
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.backend = check_backend(backend)
        self.store = open_store(store)
        if shard is not None:
            try:
                index, count = shard
            except (TypeError, ValueError):
                raise ValueError(
                    "shard must be an (index, count) pair") from None
            if count < 1 or not 1 <= index <= count:
                raise ValueError(
                    f"shard index must satisfy 1 <= index <= count, "
                    f"got {index}/{count}")
            shard = (int(index), int(count))
        self.shard = shard
        if policy is None:
            policy = SupervisorPolicy(timeout=timeout)
        elif timeout is not None:
            policy = replace(policy, timeout=timeout)
        self.policy = policy
        if isinstance(chaos, str):
            chaos = parse_chaos(chaos)
        self.chaos = chaos
        #: Fault-list content ids, hashed once per campaign (not per
        #: job) when a store is attached.
        self._fault_keys: Dict[str, str] = (
            {} if self.store is None else {
                label: fault_list_id(faults)
                for label, faults in self.fault_lists.items()
            })

    def jobs(self) -> List[CampaignJob]:
        """The campaign's work units, in deterministic result order."""
        return [
            CampaignJob(test, label, memory_size, lf3_layout,
                        self.width, self.backgrounds)
            for test in self.tests
            for label in self.fault_lists
            for memory_size in self.memory_sizes
            for lf3_layout in self.lf3_layouts
        ]

    def shard_jobs(self) -> List[CampaignJob]:
        """This run's work units: the shard's slice of :meth:`jobs`.

        The full job list when no shard is configured.  Shard *i* of
        *N* takes every job whose index is congruent to ``i - 1``
        modulo *N* -- the *N* shards partition the job list (disjoint,
        covering, order-preserving).
        """
        jobs = self.jobs()
        if self.shard is None:
            return jobs
        index, count = self.shard
        return [
            job for position, job in enumerate(jobs)
            if position % count == index - 1
        ]

    def run(self) -> CampaignResult:
        """Execute every job; see the class docstring for guarantees."""
        start = perf_counter()
        jobs = self.shard_jobs()
        reports: Dict[int, CoverageReport] = {}
        pending: List[Tuple[int, CampaignJob, Optional[str]]] = []
        hits = misses = 0
        if self.store is None:
            pending = [(position, job, None)
                       for position, job in enumerate(jobs)]
        else:
            for position, job in enumerate(jobs):
                key = self._job_key(job)
                payload = self.store.get(key)
                if payload is not None:
                    reports[position] = self._served(job, payload)
                    hits += 1
                else:
                    pending.append((position, job, key))
                    misses += 1
        failure_report: Optional[FailureReport] = None
        if not pending:
            pass
        elif self.workers == 1 and self.chaos is None:
            # Serial oracle path: record each job as it completes so
            # an interrupted run leaves every finished job in the
            # store (the CLI drains on KeyboardInterrupt).
            for position, job, key in pending:
                outcomes, contexts = self._qualify_serial(job)
                reports[position] = self._record(
                    job, key, outcomes, contexts)
        else:
            failure_report = self._run_supervised(pending, reports)
        return CampaignResult(
            entries=[
                CampaignEntry(job, reports[position])
                for position, job in enumerate(jobs)
            ],
            workers=self.workers,
            wall_seconds=perf_counter() - start,
            store_hits=hits,
            store_misses=misses,
            contexts_executed=sum(
                reports[position].contexts_simulated
                for position, _job, _key in pending),
            shard=self.shard,
            failure_report=failure_report,
        )

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def _job_key(self, job: CampaignJob) -> str:
        """Content address of *job* (see :mod:`repro.store.keys`)."""
        return qualification_key(
            job.test, self.fault_lists[job.fault_list],
            job.memory_size, self.exhaustive_limit, job.lf3_layout,
            job.width, job.backgrounds,
            fault_list_key=self._fault_keys[job.fault_list])

    def _served(self, job: CampaignJob, payload: dict) -> CoverageReport:
        """Reconstruct a byte-identical report from a store hit."""
        faults = self.fault_lists[job.fault_list]
        outcomes, contexts = decode_outcomes(
            payload, faults, job.memory_size, job.width,
            job.backgrounds, job.lf3_layout)
        return report_from_outcomes(
            job.test.name, faults, outcomes, contexts)

    def _qualify_serial(
        self, job: CampaignJob
    ) -> Tuple[List[QualifyOutcome], int]:
        return qualify_outcomes(
            job.test,
            self.fault_lists[job.fault_list],
            job.memory_size,
            self.exhaustive_limit,
            job.lf3_layout,
            self.backend,
            job.width,
            job.backgrounds,
        )

    def _record(
        self,
        job: CampaignJob,
        key: Optional[str],
        outcomes: List[QualifyOutcome],
        contexts: int,
    ) -> CoverageReport:
        """Persist a completed job (when a store is attached) and
        build its report."""
        faults = self.fault_lists[job.fault_list]
        if self.store is not None and key is not None:
            self.store.put(key, encode_outcomes(
                outcomes, contexts, faults, job.memory_size,
                job.width, job.backgrounds, job.lf3_layout))
        return report_from_outcomes(
            job.test.name, faults, outcomes, contexts)

    def _chunk_args(self, job: CampaignJob, chunk, backend: str):
        return (job.test, chunk, job.memory_size,
                self.exhaustive_limit, job.lf3_layout, backend,
                job.width, job.backgrounds)

    def _run_supervised(
        self,
        pending: List[Tuple[int, CampaignJob, Optional[str]]],
        reports: Dict[int, CoverageReport],
    ) -> FailureReport:
        """Fan fault chunks out under the supervisor, merge in order.

        Each ``(job, fault-chunk)`` pair becomes one supervised task
        (qualify_outcomes is module-level in repro.sim.coverage, so
        worker processes import it by qualified name).  When a store
        is attached, every completed chunk is checkpointed under its
        own content address the moment it lands -- a chunk of faults
        is just a smaller fault list, so no schema is needed -- and a
        re-run of an interrupted campaign resumes at chunk
        granularity with zero re-simulation.  Kernel-implicating
        failures degrade the chunk to the dense reference backend
        (reports are byte-identical across backends, so degradation
        cannot change the result).
        """
        failure_report = FailureReport()
        tasks: List[SupervisedTask] = []
        # Per pending job: chunk slots, each either ("hit", outcomes,
        # contexts) served from a checkpoint or ("task", index) to be
        # filled from the supervisor's result list.
        slots: List[List[Tuple]] = []
        for position, job, key in pending:
            faults = self.fault_lists[job.fault_list]
            size = self.chunk_size or auto_chunk_size(
                len(faults), self.workers)
            chunks = list(chunked(faults, size))
            job_slots: List[Tuple] = []
            for index, chunk in enumerate(chunks):
                chunk_key = None
                if self.store is not None:
                    # A single-chunk job's chunk IS the job: its key
                    # was already probed (and missed) above.
                    if len(chunks) == 1:
                        chunk_key = key
                    else:
                        chunk_key = qualification_key(
                            job.test, chunk, job.memory_size,
                            self.exhaustive_limit, job.lf3_layout,
                            job.width, job.backgrounds)
                        payload = self.store.get(chunk_key)
                        if payload is not None:
                            job_slots.append(("hit",) + decode_outcomes(
                                payload, chunk, job.memory_size,
                                job.width, job.backgrounds,
                                job.lf3_layout))
                            failure_report.chunk_hits += 1
                            continue
                label = (f"{job.describe()} "
                         f"chunk {index + 1}/{len(chunks)}")
                fallback = None
                if self.backend != "dense":
                    fallback = self._chunk_args(job, chunk, "dense")
                job_slots.append(("task", len(tasks)))
                tasks.append(SupervisedTask(
                    label=label,
                    fn=qualify_outcomes,
                    args=self._chunk_args(job, chunk, self.backend),
                    fallback_args=fallback,
                    context=(chunk, chunk_key, job),
                ))
            slots.append(job_slots)

        def checkpoint(task: SupervisedTask, result) -> None:
            chunk, chunk_key, job = task.context
            if self.store is None or chunk_key is None:
                return
            outcomes, contexts = result
            self.store.put(chunk_key, encode_outcomes(
                outcomes, contexts, chunk, job.memory_size,
                job.width, job.backgrounds, job.lf3_layout))
            failure_report.chunk_checkpoints += 1

        supervisor = Supervisor(
            self.workers, self.policy, chaos=self.chaos,
            report=failure_report)
        if self.store is not None and self.chaos is not None:
            self.store.inject_lock_chaos(self.chaos.lock_plan())
        try:
            results = supervisor.run(tasks, on_complete=checkpoint)
        finally:
            if self.store is not None and self.chaos is not None:
                self.store.inject_lock_chaos(None)
        for (position, job, key), job_slots in zip(pending, slots):
            outcomes: List[QualifyOutcome] = []
            contexts = 0
            for slot in job_slots:
                if slot[0] == "hit":
                    chunk_outcomes, chunk_contexts = slot[1], slot[2]
                else:
                    chunk_outcomes, chunk_contexts = results[slot[1]]
                outcomes.extend(chunk_outcomes)
                contexts += chunk_contexts
            reports[position] = self._record(
                job, key, outcomes, contexts)
        return failure_report
