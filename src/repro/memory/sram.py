"""Behavioral SRAM array with fault hooks.

This is the execution core of the memory fault simulator (the paper's
ref. [13]): a word-of-one-bit cell array whose read/write/wait
operations consult the bound fault primitives of a
:class:`~repro.memory.injection.FaultInstance`.

Operational semantics:

* sensitization is evaluated against the **pre-operation** cell states;
* the base operation applies first (a write stores its value), then the
  effects of every sensitized primitive apply **in declaration order**
  (FP2 after FP1 for linked faults);
* a sensitized read *of the victim* returns the primitive's ``R``
  value; reads of other cells return the stored (possibly faulty)
  value;
* state faults (SF/CFst) are standing conditions: after every
  operation each one whose condition holds is applied once, in
  declaration order;
* an uninitialized cell reads as ``'-'`` (the engine treats such reads
  as non-detecting: a real device would return an arbitrary level).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.faults.operations import OpKind
from repro.faults.primitives import PreviousOperation, VICTIM
from repro.faults.values import (
    Bit,
    CellState,
    DONT_CARE,
    pack_word,
    unpack_word,
)
from repro.memory.injection import BoundPrimitive, FaultInstance


class PartitionedPrimitives(NamedTuple):
    """A fault instance's bound primitives split by sensitization kind.

    The split is what every simulation backend executes directly:
    *operation* primitives are matched against individual memory
    operations, *state* primitives are standing conditions settled
    after every operation.  Exposed so alternative kernels (see
    :mod:`repro.sim.sparse`) can compile an instance without
    re-deriving the partition.
    """

    all: Tuple[BoundPrimitive, ...]
    state: Tuple[BoundPrimitive, ...]
    operation: Tuple[BoundPrimitive, ...]

    @property
    def wait_sensitized(self) -> Tuple[BoundPrimitive, ...]:
        """The operation primitives sensitized by the wait ``t``."""
        return tuple(
            bp for bp in self.operation if bp.fp.op.is_wait)


def partition_primitives(
    fault: Optional[FaultInstance],
) -> PartitionedPrimitives:
    """Split *fault*'s bound primitives into state/operation groups.

    ``None`` (a golden memory) partitions into empty groups.
    """
    primitives: Tuple[BoundPrimitive, ...] = (
        fault.primitives if fault is not None else ())
    return PartitionedPrimitives(
        all=primitives,
        state=tuple(bp for bp in primitives if bp.fp.op is None),
        operation=tuple(bp for bp in primitives if bp.fp.op is not None),
    )


def replay_visits_with_cycle_detection(
    state_key, one_visit, count: int
) -> None:
    """Replay *count* identical bound-cell visits, cycle-compressed.

    The sparse kernels (bit-oriented and word-oriented) replay the
    bound-cell side effects of long homogeneous segments: each visit
    is a pure function of the bound-cell states (*state_key*), whose
    space is tiny, so the trajectory must cycle and long segments
    collapse to O(cycle length) literal visits.  Shared here -- below
    both kernels -- because the algorithm is exactness-critical and
    must not fork.

    Args:
        state_key: zero-argument callable returning a hashable key of
            the bound-cell states.
        one_visit: zero-argument callable applying one visit's effects.
        count: number of visits to replay.
    """
    seen = {}
    step = 0
    while step < count:
        key = state_key()
        first_step = seen.get(key)
        if first_step is not None:
            cycle = step - first_step
            for _ in range((count - step) % cycle):
                one_visit()
            return
        seen[key] = step
        one_visit()
        step += 1


class FaultyMemory:
    """An *n*-cell one-bit-per-cell SRAM with an injected fault.

    Args:
        size: number of cells.
        fault: the fault instance to inject, or ``None`` for a
            fault-free (golden) memory.

    The memory starts fully uninitialized (every cell at ``'-'``).
    """

    def __init__(self, size: int, fault: Optional[FaultInstance] = None):
        if size < 1:
            raise ValueError("memory size must be positive")
        if fault is not None and fault.max_cell() >= size:
            raise ValueError(
                f"fault {fault.name} touches cell {fault.max_cell()} "
                f"outside a memory of {size} cells")
        self.size = size
        self.fault = fault
        self._previous: Optional[PreviousOperation] = None
        parts = partition_primitives(fault)
        self._primitives = parts.all
        self._state_primitives = parts.state
        self._op_primitives = parts.operation
        self._cells = self._initial_cells()

    def _initial_cells(self):
        """Backing cell store, every cell uninitialized.

        Subclasses may return any object supporting integer-address
        ``[]`` access (the sparse backend substitutes an O(1) mapping
        over the fault's bound cells).
        """
        cells: List[CellState] = [DONT_CARE] * self.size
        return cells

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def state(self) -> Tuple[CellState, ...]:
        """Snapshot of every cell value (lowest address first)."""
        return tuple(self._cells)

    def load_state(self, cells: Tuple[CellState, ...]) -> None:
        """Restore a snapshot captured with :meth:`state`.

        Used by the generator's incremental oracle to resume simulation
        after a shared march prefix without replaying it.  Resets the
        previous-operation record; callers resuming mid-trace must also
        restore :attr:`previous_operation`.
        """
        if len(cells) != self.size:
            raise ValueError("snapshot size mismatch")
        self._cells = list(cells)
        self._previous = None

    def packed_state(self) -> int:
        """Bit-packed form of :meth:`state` (two bits per cell).

        Packed snapshots are what the incremental coverage oracle
        stores and deduplicates: an ``int`` hashes and compares faster
        than a tuple of mixed ints and strings.
        """
        return pack_word(self._cells)

    def load_packed(self, packed: int) -> None:
        """Restore a snapshot captured with :meth:`packed_state`.

        Like :meth:`load_state`, resets the previous-operation record;
        callers resuming mid-trace must restore
        :attr:`previous_operation` themselves.
        """
        self._cells = list(unpack_word(packed, self.size))
        self._previous = None

    @property
    def previous_operation(self) -> Optional[PreviousOperation]:
        """The last executed operation (dynamic-fault pairing state)."""
        return self._previous

    @previous_operation.setter
    def previous_operation(self, value: Optional[PreviousOperation]) -> None:
        self._previous = value

    def __getitem__(self, address: int) -> CellState:
        return self._cells[address]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def write(self, address: int, value: Bit) -> None:
        """Perform ``w<value>`` on *address* under the fault model."""
        sensitized = self._sensitized(OpKind.WRITE, value, address)
        pre_state = self._cells[address]
        self._cells[address] = value
        for bp in sensitized:
            self._cells[bp.victim] = bp.fp.effect
        self._previous = PreviousOperation(
            OpKind.WRITE, value, pre_state, address)
        self._settle_state_faults()

    def read(self, address: int) -> CellState:
        """Perform a read on *address*; return the observed value."""
        sensitized = self._sensitized(OpKind.READ, None, address)
        pre_state = self._cells[address]
        observed: CellState = pre_state
        for bp in sensitized:
            self._cells[bp.victim] = bp.fp.effect
            if bp.fp.read_out is not None and bp.victim == address:
                observed = bp.fp.read_out
        self._previous = PreviousOperation(
            OpKind.READ, None, pre_state, address)
        self._settle_state_faults()
        return observed

    def wait(self) -> None:
        """Perform the wait operation ``t`` (data-retention hook).

        Wait-sensitized primitives (DRF) apply to their victim when its
        pre-wait state matches, regardless of address (waiting is a
        whole-array condition).
        """
        self._apply_wait_faults()
        # Waiting breaks the at-speed pairing of dynamic sensitizations.
        self._previous = None
        self._settle_state_faults()

    def _apply_wait_faults(self) -> None:
        """Apply every wait-sensitized primitive whose condition holds.

        Factored out of :meth:`wait` so the sparse kernel can replay a
        wait's cell-state effect without the previous-operation reset
        (which it accounts for once per march-element segment).
        """
        pending = []
        for bp in self._op_primitives:
            if not bp.fp.op.is_wait:
                continue
            victim_pre = self._cells[bp.victim]
            aggressor_pre = (
                self._cells[bp.aggressor]
                if bp.aggressor is not None else DONT_CARE)
            if bp.fp.matches(
                    OpKind.WAIT, None, VICTIM, aggressor_pre, victim_pre):
                pending.append(bp)
        for bp in pending:
            self._cells[bp.victim] = bp.fp.effect

    # ------------------------------------------------------------------
    # Fault machinery
    # ------------------------------------------------------------------
    def _sensitized(
        self, kind: OpKind, value: Optional[Bit], address: int
    ) -> List[BoundPrimitive]:
        """Primitives sensitized by this operation, in declaration order.

        All matching is done against the pre-operation state so that a
        single operation cannot chain two sensitizations (each FP sees
        the same memory snapshot).
        """
        if not self._op_primitives:
            return []
        matched = []
        for bp in self._op_primitives:
            role = bp.role_of(address)
            if role is None or role != bp.fp.op_role:
                continue
            victim_pre = self._cells[bp.victim]
            aggressor_pre = (
                self._cells[bp.aggressor]
                if bp.aggressor is not None else DONT_CARE)
            if bp.fp.matches(kind, value, role, aggressor_pre, victim_pre,
                             previous=self._previous,
                             target_address=address):
                matched.append(bp)
        return matched

    def _settle_state_faults(self) -> None:
        """Apply standing state-fault conditions once each, in order."""
        for bp in self._state_primitives:
            victim_state = self._cells[bp.victim]
            aggressor_state = (
                self._cells[bp.aggressor]
                if bp.aggressor is not None else DONT_CARE)
            if bp.fp.condition_holds(aggressor_state, victim_state):
                self._cells[bp.victim] = bp.fp.effect
