"""Fault-tolerant supervised execution of campaign work units.

:class:`CoverageCampaign` and the diagnosis dictionary build fan work
out over a :class:`~concurrent.futures.ProcessPoolExecutor`.  A bare
pool is brittle: one crashed worker raises
:class:`~concurrent.futures.process.BrokenProcessPool` and discards
every completed chunk, a hung worker stalls the campaign forever, and
there is no retry for transient failures.  The :class:`Supervisor`
wraps the pool with the recovery ladder a long-running qualification
service needs:

* **per-chunk wall-clock timeouts** -- a hung worker is detected, the
  pool is replaced (the only reliable way to reclaim the stuck
  process) and the chunk is retried;
* **bounded retry** with exponential backoff and deterministic
  jitter;
* **automatic pool respawn** on :class:`BrokenProcessPool` -- only
  the in-flight chunks are re-submitted, completed results are kept;
* **graceful degradation** -- a chunk that keeps failing falls back
  to in-process serial execution (and, when the failure signature
  implicates the simulation kernel, to the task's fallback arguments,
  e.g. the dense reference kernel) before the run is allowed to fail;
* **nothing is silent** -- every retry, timeout, respawn and
  degradation is recorded in a :class:`FailureReport` attached to the
  campaign result.

The recovery ladder is *byte-safe* by construction: chunk results are
pure functions of their arguments and the qualification store's
``INSERT OR IGNORE`` writes are idempotent, so a retried or degraded
chunk contributes exactly the bytes the undisturbed run would have --
the chaos suite (:mod:`repro.sim.chaos`) proves the final report
byte-identical to the serial oracle under every injected failure
mode.
"""

from __future__ import annotations

import random
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.chaos import ChaosSpec, apply_chaos


class CampaignExecutionError(RuntimeError):
    """A work unit failed beyond every retry and degradation rung.

    Raised only after the supervisor has exhausted pool retries *and*
    the in-process serial fallback (and the degraded-backend rung when
    one was available) -- so reaching it means the failure is
    deterministic, not environmental.  The message names the failed
    job/chunk; the original exception rides along as ``__cause__``.
    """

    def __init__(self, label: str, attempts: int, cause: BaseException):
        super().__init__(
            f"work unit [{label}] failed after {attempts} attempt(s) "
            f"including in-process fallback: "
            f"{type(cause).__name__}: {cause}")
        self.label = label
        self.attempts = attempts


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/degradation knobs of a supervised run.

    Args:
        timeout: per-chunk wall-clock budget in seconds (``None`` =
            unbounded; required for hang recovery).  The budget
            covers a chunk's own execution: a chunk still queued
            behind a busy pool has its clock restarted rather than
            taking a timeout strike.
        max_retries: pool attempts beyond the first before a chunk is
            degraded to in-process execution.
        backoff_base: first retry delay in seconds (doubled per
            attempt, jittered deterministically from *jitter_seed*).
        backoff_cap: upper bound on any single backoff sleep.
        jitter_seed: seed of the deterministic backoff jitter --
            supervised runs never consult global randomness.
        degrade_serial_after: consecutive failures of one chunk before
            it abandons the pool for in-process serial execution.
        degrade_backend_after: consecutive *exception* failures (the
            signature that implicates the kernel, unlike a crash or a
            timeout) before a chunk with fallback arguments switches
            to them (e.g. ``bitpar``/``sparse`` -> ``dense``).
    """

    timeout: Optional[float] = None
    max_retries: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    jitter_seed: int = 0
    degrade_serial_after: int = 2
    degrade_backend_after: int = 1

    def __post_init__(self):
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be >= 0")
        if self.degrade_serial_after < 1:
            raise ValueError("degrade_serial_after must be >= 1")
        if self.degrade_backend_after < 1:
            raise ValueError("degrade_backend_after must be >= 1")

    def backoff(self, label: str, attempt: int) -> float:
        """The deterministic pre-retry sleep for *label*'s *attempt*."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_base * (2 ** attempt),
                    self.backoff_cap)
        seed = (self.jitter_seed << 32) ^ zlib.crc32(
            f"{label}|{attempt}".encode())
        return delay * (0.5 + random.Random(seed).random())


@dataclass
class FailureEvent:
    """One recorded recovery action (timeout, crash, retry, ...)."""

    kind: str
    label: str
    attempt: int
    detail: str = ""

    def describe(self) -> str:
        text = f"{self.kind} [{self.label}] attempt {self.attempt}"
        return f"{text}: {self.detail}" if self.detail else text

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "attempt": self.attempt,
            "detail": self.detail,
        }


@dataclass
class FailureReport:
    """Everything a supervised run had to recover from.

    Empty on a clean run.  ``chunk_checkpoints``/``chunk_hits`` count
    the incremental store checkpoints written and the previously
    checkpointed chunks served without re-simulation (the chunk-level
    extension of the store's job-level resume).
    """

    events: List[FailureEvent] = field(default_factory=list)
    chunk_checkpoints: int = 0
    chunk_hits: int = 0

    def record(
        self, kind: str, label: str, attempt: int, detail: str = ""
    ) -> None:
        self.events.append(FailureEvent(kind, label, attempt, detail))

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def to_dict(self) -> dict:
        return {
            "events": [event.to_dict() for event in self.events],
            "crashes": self.count("crash"),
            "timeouts": self.count("timeout"),
            "errors": self.count("error"),
            "retries": self.count("retry"),
            "respawns": self.count("respawn"),
            "degraded_serial": self.count("degrade-serial"),
            "degraded_backend": self.count("degrade-backend"),
            "chunk_checkpoints": self.chunk_checkpoints,
            "chunk_hits": self.chunk_hits,
        }

    def summary(self) -> str:
        if not self.events:
            return "no failures"
        parts = [
            f"{self.count(kind)} {kind}"
            for kind in ("crash", "timeout", "error", "retry",
                         "respawn", "degrade-backend", "degrade-serial")
            if self.count(kind)
        ]
        return f"{len(self.events)} recovery event(s): " \
               + ", ".join(parts)


@dataclass(frozen=True)
class SupervisedTask:
    """One supervised work unit: a picklable callable and arguments.

    ``fn`` must be a module-level function (worker processes import
    it by qualified name).  *fallback_args* are tried instead of
    *args* once the failure signature implicates the arguments
    themselves (e.g. the same chunk on the dense reference kernel);
    results must be identical by contract.  *context* is opaque
    caller data threaded through to the completion callback.
    """

    label: str
    fn: Callable
    args: Tuple
    fallback_args: Optional[Tuple] = None
    context: Any = None


def _supervised_call(fn, args, action, slow_seconds, hang_seconds):
    """Worker body: apply a planned chaos action, then do the work."""
    apply_chaos(action, slow_seconds, hang_seconds)
    return fn(*args)


class Supervisor:
    """Run :class:`SupervisedTask`s over a self-healing process pool.

    Results come back in task order regardless of completion order,
    retries and degradations -- the same determinism contract as the
    bare pool loop it replaces.  A caller-provided
    :class:`FailureReport` (or a fresh one, exposed as
    :attr:`report`) records every recovery action.

    Args:
        workers: pool size (>= 1).
        policy: retry/timeout/degradation knobs.
        chaos: optional :class:`~repro.sim.chaos.ChaosSpec`; actions
            are planned deterministically in the parent and injected
            into the worker body (never into in-process fallbacks).
        report: failure report to append to (default: a fresh one).
    """

    def __init__(
        self,
        workers: int,
        policy: Optional[SupervisorPolicy] = None,
        chaos: Optional[ChaosSpec] = None,
        report: Optional[FailureReport] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.policy = policy or SupervisorPolicy()
        self.chaos = chaos
        self.report = report if report is not None else FailureReport()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a (possibly hung or broken) pool down, hard.

        ``shutdown`` alone never reclaims a hung worker -- the
        processes are killed first, then the executor is discarded
        with its queued futures cancelled.
        """
        processes = list(getattr(pool, "_processes", None) or {})
        for pid in processes:
            process = pool._processes.get(pid)
            if process is not None:
                process.kill()
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SupervisedTask],
        on_complete: Optional[
            Callable[[SupervisedTask, Any], None]] = None,
    ) -> List[Any]:
        """Execute every task; results in task order.

        *on_complete* fires once per task as its result first becomes
        available (checkpointing hook); exceptions it raises abort the
        run after the pool is torn down.

        Raises:
            CampaignExecutionError: when a task fails its final
                in-process fallback attempt.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        results: Dict[int, Any] = {}
        degraded: List[Tuple[int, int, BaseException]] = []
        use_fallback: set = set()
        consecutive: Dict[int, int] = {}
        pool = self._spawn()
        try:
            self._drive_pool(
                pool, tasks, results, degraded, use_fallback,
                consecutive, on_complete)
        except BaseException:
            self._kill_pool(pool)
            raise
        pool.shutdown(wait=False)
        self._run_degraded(
            tasks, results, degraded, use_fallback, on_complete)
        return [results[position] for position in range(len(tasks))]

    def _drive_pool(
        self, pool, tasks, results, degraded, use_fallback,
        consecutive, on_complete,
    ) -> None:
        """The supervision loop: submit, monitor, recover, repeat.

        Mutates *results*/*degraded*/*use_fallback* in place and
        returns once every task is either resolved or queued for
        in-process degradation.  *pool* may be replaced mid-loop
        (respawn); the caller's reference is kept current through the
        returned value of :meth:`_respawn`.
        """
        # future -> [position, attempt, deadline]; the deadline slot
        # is mutable (queued chunks get their clock restarted).
        in_flight: Dict[Any, List] = {}

        def submit(position: int, attempt: int) -> None:
            nonlocal pool
            task = tasks[position]
            args = task.args
            if position in use_fallback and task.fallback_args:
                args = task.fallback_args
            while True:
                try:
                    if self.chaos is not None:
                        action = self.chaos.plan(task.label, attempt)
                        future = pool.submit(
                            _supervised_call, task.fn, args, action,
                            self.chaos.slow_seconds,
                            self.chaos.hang_seconds)
                    else:
                        future = pool.submit(task.fn, *args)
                    break
                except BrokenProcessPool:
                    # A worker died between the monitor's wait and
                    # this submit; respawn and resubmit here.  The old
                    # pool's in-flight futures surface as crashes on
                    # the next monitor pass.
                    pool = self._respawn(pool, "worker crash")
            deadline = None
            if self.policy.timeout is not None:
                deadline = time.monotonic() + self.policy.timeout
            in_flight[future] = [position, attempt, deadline]

        def dispose(position: int, attempt: int, kind: str,
                    detail: str, cause: BaseException) -> None:
            """Route one failure down the recovery ladder."""
            task = tasks[position]
            consecutive[position] = consecutive.get(position, 0) + 1
            self.report.record(kind, task.label, attempt, detail)
            if (kind == "error"
                    and task.fallback_args is not None
                    and position not in use_fallback
                    and consecutive[position]
                    >= self.policy.degrade_backend_after):
                use_fallback.add(position)
                self.report.record(
                    "degrade-backend", task.label, attempt,
                    "failure signature implicates the kernel; "
                    "retrying on fallback arguments")
            if (attempt >= self.policy.max_retries
                    or consecutive[position]
                    >= self.policy.degrade_serial_after):
                self.report.record(
                    "degrade-serial", task.label, attempt,
                    "retry budget exhausted; falling back to "
                    "in-process execution")
                degraded.append((position, attempt, cause))
            else:
                delay = self.policy.backoff(task.label, attempt)
                self.report.record(
                    "retry", task.label, attempt + 1,
                    f"backoff {delay:.3f}s")
                if delay > 0:
                    time.sleep(delay)
                submit(position, attempt + 1)

        for position in range(len(tasks)):
            submit(position, 0)

        while in_flight:
            deadlines = [record[2] for record in in_flight.values()
                         if record[2] is not None]
            patience = None
            if deadlines:
                patience = max(0.0, min(deadlines) - time.monotonic())
            done, _ = wait(set(in_flight), timeout=patience,
                           return_when=FIRST_COMPLETED)
            broken = None
            crashed = []
            errored = []
            for future in done:
                position, attempt, _ = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as error:
                    # Disposal is deferred: the pool is unusable until
                    # it has been respawned below.
                    broken = error
                    crashed.append((position, attempt))
                except Exception as error:
                    # Also deferred: a crash elsewhere in this same
                    # batch may have broken the pool, and disposal
                    # can resubmit.
                    errored.append((position, attempt, error))
                else:
                    consecutive.pop(position, None)
                    results[position] = result
                    if on_complete is not None:
                        on_complete(tasks[position], result)
            if broken is not None:
                # The culprit is unknowable (every in-flight future
                # fails with BrokenProcessPool), so each victim and
                # each survivor takes a crash strike.
                survivors = list(in_flight.values())
                in_flight.clear()
                pool = self._respawn(pool, "worker crash")
                for position, attempt in crashed:
                    dispose(position, attempt, "crash",
                            "worker process died", broken)
                for position, attempt, _ in survivors:
                    dispose(position, attempt, "crash",
                            "pool died while chunk was in flight",
                            broken)
            for position, attempt, error in errored:
                dispose(position, attempt, "error",
                        f"{type(error).__name__}: {error}", error)
            if broken is not None:
                continue
            now = time.monotonic()
            due = [future for future, record in in_flight.items()
                   if record[2] is not None and now >= record[2]]
            # The pool also pre-dispatches queued chunks into its call
            # queue, where they report running() too.  Workers take
            # chunks in submission order (in_flight's order), so only
            # the first `workers` running chunks can be executing.
            executing = [future for future in in_flight
                         if future.running()][:self.workers] if due else []
            expired = []
            for future in due:
                if future in executing:
                    expired.append(future)
                else:
                    # Still queued behind a busy pool -- the budget
                    # measures the chunk's own execution, so restart
                    # its clock instead of blaming it.
                    in_flight[future][2] = now + self.policy.timeout
            if expired:
                # A hung worker holds its pool slot forever; replace
                # the pool.  Expired chunks take a timeout strike;
                # innocent in-flight chunks are re-submitted at the
                # same attempt (their work died with the pool, but
                # they did not fail).
                timed_out = [in_flight.pop(future)
                             for future in expired]
                survivors = list(in_flight.values())
                in_flight.clear()
                pool = self._respawn(pool, "chunk timeout")
                for position, attempt, _ in survivors:
                    submit(position, attempt)
                for position, attempt, _ in timed_out:
                    dispose(
                        position, attempt, "timeout",
                        f"exceeded {self.policy.timeout:.3f}s "
                        f"wall-clock budget",
                        TimeoutError(tasks[position].label))

    def _respawn(self, pool, why: str) -> ProcessPoolExecutor:
        self._kill_pool(pool)
        self.report.record("respawn", "pool", 0, why)
        return self._spawn()

    def _run_degraded(
        self, tasks, results, degraded, use_fallback, on_complete,
    ) -> None:
        """Last rung: run abandoned chunks serially, in-process."""
        for position, attempt, cause in sorted(degraded):
            task = tasks[position]
            args = task.args
            if position in use_fallback and task.fallback_args:
                args = task.fallback_args
            try:
                result = task.fn(*args)
            except Exception as error:
                if (task.fallback_args is not None
                        and args is not task.fallback_args):
                    self.report.record(
                        "degrade-backend", task.label, attempt,
                        "in-process run failed too; last resort: "
                        "fallback arguments")
                    try:
                        result = task.fn(*task.fallback_args)
                    except Exception as final:
                        raise CampaignExecutionError(
                            task.label, attempt + 2, final) from final
                else:
                    raise CampaignExecutionError(
                        task.label, attempt + 2, error) from error
            results[position] = result
            if on_complete is not None:
                on_complete(task, result)
