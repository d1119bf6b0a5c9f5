"""Word-oriented SRAM over the cell-level fault model.

A :class:`WordMemory` models a ``words x width`` array: every address
holds a W-bit word whose lanes are consecutive cells of the existing
bit-oriented :class:`~repro.memory.sram.FaultyMemory`
(``cell = word * width + lane``).  Layering on the cell store is what
makes the word workload trustworthy: fault injection, sensitization,
masking and state-fault settling are the *same code* the bit-oriented
simulator runs -- word semantics add only the lane loop.

Operational semantics (the word-mode extension of the bit-level rules
in :mod:`repro.memory.sram`):

* a word write applies its lane values in ascending lane order, one
  cell write per lane; a word read reads the lanes in ascending order.
  Sequential lane application keeps Definition 6's "effects apply in
  order" story intact and is what makes intra-word coupling faults
  *observable*: an aggressor-lane write can corrupt a victim lane that
  the same word operation wrote moments earlier (lane order decides
  which, so placements cover both orders);
* the wait operation ``t`` is a whole-array condition and executes
  once per word visit, exactly as it executes once per cell visit in
  the bit model;
* a march's symbolic values are mapped through a data background
  ``B`` (:mod:`repro.faults.backgrounds`): ``w0``/``r0`` operate on
  ``B``, ``w1``/``r1`` on its lane-wise complement.  Width 1 with
  background ``(0,)`` reduces every definition above to the bit model
  exactly -- the width-1 wordization regression pins this.

:class:`SparseWordMemory` is the word-mode sibling of the PR 2 sparse
kernel: it stores every lane of the (at most three) words a fault
binds plus one shared representative *per lane* for all other words,
and executes a march element in O(ops x width x bound_words) --
independent of the word count -- by replaying homogeneous word
segments through memoized per-lane fault-free trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.faults.backgrounds import Background
from repro.faults.operations import Operation, read, write
from repro.faults.primitives import PreviousOperation
from repro.faults.values import (
    Bit,
    CellState,
    DONT_CARE,
    pack_word,
    unpack_word,
)
from repro.march.element import AddressOrder, MarchElement
from repro.march.test import MarchTest
from repro.memory.injection import FaultInstance
from repro.memory.sram import (
    FaultyMemory,
    partition_primitives,
    replay_visits_with_cycle_detection,
)

# NOTE: everything from :mod:`repro.sim` (the backend seam, the
# memoized segment walks and the fault-free trajectory cache) is
# imported at call time.  This module sits below the simulation layer
# like the rest of :mod:`repro.memory`; a module-level import would
# run the ``repro.sim`` package init, whose coverage module imports
# this one back.


@dataclass(frozen=True)
class WordDetectionSite:
    """Where a word-oriented march run first detected a fault.

    Attributes:
        element: index of the detecting march element.
        word: word address whose read mismatched.
        lane: bit lane of the mismatching read.
        operation: index of the read within the element.
        expected: the background-mapped lane expectation.
        observed: the value the faulty memory returned.
    """

    element: int
    word: int
    lane: int
    operation: int
    expected: Bit
    observed: CellState

    def cell(self, width: int) -> int:
        """The flat cell address of the mismatching lane."""
        return self.word * width + self.lane

    def __str__(self) -> str:
        return (
            f"element {self.element}, word {self.word} lane {self.lane}, "
            f"op {self.operation}: expected {self.expected}, "
            f"observed {self.observed}")


class WordMemory:
    """A ``words x width`` word-oriented SRAM with an injected fault.

    Args:
        words: number of word addresses.
        width: bits per word (lanes).
        fault: the fault instance to inject (bound to *flat cell*
            addresses), or ``None`` for a golden memory.
        cells: an existing cell-level memory to layer on (used by the
            sparse subclass); defaults to a dense
            :class:`~repro.memory.sram.FaultyMemory` of
            ``words * width`` cells.
    """

    def __init__(
        self,
        words: int,
        width: int,
        fault: Optional[FaultInstance] = None,
        cells: Optional[FaultyMemory] = None,
    ):
        if words < 1:
            raise ValueError("word count must be positive")
        if width < 1:
            raise ValueError("word width must be positive")
        self.words = words
        self.width = width
        self.cells = (
            cells if cells is not None
            else FaultyMemory(words * width, fault))

    @property
    def fault(self) -> Optional[FaultInstance]:
        return self.cells.fault

    @property
    def previous_operation(self) -> Optional[PreviousOperation]:
        """The cell store's dynamic-fault pairing record."""
        return self.cells.previous_operation

    @previous_operation.setter
    def previous_operation(
        self, value: Optional[PreviousOperation]
    ) -> None:
        self.cells.previous_operation = value

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def state(self) -> Tuple[CellState, ...]:
        """Flat snapshot of every cell (lowest address first)."""
        return self.cells.state()

    def word_state(self, address: int) -> Tuple[CellState, ...]:
        """The lanes of one word, lane 0 first."""
        base = address * self.width
        return tuple(
            self.cells[base + lane] for lane in range(self.width))

    def packed_state(self) -> int:
        """Bit-packed snapshot (encoding owned by the cell store)."""
        return self.cells.packed_state()

    def load_packed(self, packed: int) -> None:
        """Restore a :meth:`packed_state` snapshot (resets pairing)."""
        self.cells.load_packed(packed)

    # ------------------------------------------------------------------
    # Word operations
    # ------------------------------------------------------------------
    def write_word(self, address: int, pattern: Sequence[Bit]) -> None:
        """Write *pattern* to word *address*, lane 0 first."""
        base = address * self.width
        for lane, value in enumerate(pattern):
            self.cells.write(base + lane, value)

    def read_word(self, address: int) -> Tuple[CellState, ...]:
        """Read word *address*; return the observed lanes in order."""
        base = address * self.width
        return tuple(
            self.cells.read(base + lane) for lane in range(self.width))

    def wait(self) -> None:
        """The wait operation ``t`` (whole-array, once per visit)."""
        self.cells.wait()


# ----------------------------------------------------------------------
# Background mapping
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def background_targets(
    ops: Tuple[Operation, ...], background: Background
) -> Tuple[Optional[Tuple[Optional[Bit], ...]], ...]:
    """Per-operation lane targets under a data background.

    For each element operation: a lane tuple of written values (write),
    expected values (read; all ``None`` for an expectation-free read),
    or ``None`` (wait).  Symbolic value ``v`` maps to
    ``background[lane] XOR v``.
    """
    targets: List[Optional[Tuple[Optional[Bit], ...]]] = []
    for op in ops:
        if op.is_wait:
            targets.append(None)
        elif op.value is None:
            targets.append((None,) * len(background))
        else:
            targets.append(
                tuple(bit ^ op.value for bit in background))
    return tuple(targets)


@lru_cache(maxsize=None)
def lane_operations(
    ops: Tuple[Operation, ...], background: Background, lane: int
) -> Tuple[Operation, ...]:
    """The cell-operation sequence one lane sees under a background.

    Used by the sparse kernel's per-lane fault-free trajectories: the
    element's symbolic operations with values mapped through the lane's
    background bit (waits pass through -- they touch no fault-free
    state but clear the pairing record).
    """
    bit = background[lane]
    mapped: List[Operation] = []
    for op in ops:
        if op.is_write:
            mapped.append(write(bit ^ op.value))
        elif op.is_read:
            mapped.append(
                read(None if op.value is None else bit ^ op.value))
        else:
            mapped.append(op)
    return tuple(mapped)


#: Caches registered with :func:`repro.sim.batch.clear_caches` by
#: :mod:`repro.sim.coverage` -- see the import note above.
WORD_CACHES = (background_targets, lane_operations)


# ----------------------------------------------------------------------
# Word march execution
# ----------------------------------------------------------------------

def _visit_word(
    memory: WordMemory,
    ops: Tuple[Operation, ...],
    targets: Tuple[Optional[Tuple[Optional[Bit], ...]], ...],
    address: int,
    element_index: int,
) -> Optional[WordDetectionSite]:
    """Apply one element's operations to one word, lane by lane.

    Shared by the dense sweep and the sparse kernel's bound-word
    visits, so the two backends cannot drift on word semantics.
    Returns the first mismatching read, or ``None``.
    """
    base = address * memory.width
    cells = memory.cells
    for op_index, op in enumerate(ops):
        if op.is_wait:
            memory.wait()
            continue
        target = targets[op_index]
        if op.is_write:
            for lane, value in enumerate(target):
                cells.write(base + lane, value)
        else:
            for lane, expected in enumerate(target):
                observed = cells.read(base + lane)
                if expected is not None and observed in (0, 1) \
                        and observed != expected:
                    return WordDetectionSite(
                        element_index, address, lane, op_index,
                        expected, observed)
    return None


def run_word_element(
    element: MarchElement,
    element_index: int,
    memory: WordMemory,
    descending: bool,
    background: Background,
) -> Optional[WordDetectionSite]:
    """Run one march element over a word memory under a background.

    Memories providing a ``word_element_kernel`` method
    (:class:`SparseWordMemory`) execute the element themselves in
    O(ops x width x bound_words); everything else gets the dense
    every-word walk.
    """
    kernel = getattr(memory, "word_element_kernel", None)
    if kernel is not None:
        return kernel(element, element_index, descending, background)
    ops = element.operations
    targets = background_targets(ops, background)
    for address in element.order.addresses(memory.words, descending):
        site = _visit_word(memory, ops, targets, address, element_index)
        if site is not None:
            return site
    return None


def run_word_march(
    test: MarchTest,
    memory: WordMemory,
    background: Background,
    resolution: Sequence[bool] = (),
    start_element: int = 0,
) -> Optional[WordDetectionSite]:
    """Run one background's pass of *test* over a word memory.

    Mirrors :func:`repro.sim.engine.run_march`: the resolution sequence
    indexes ``⇕`` elements from the start of the test even when
    *start_element* skips a prefix, and the first mismatching read ends
    the run.
    """
    any_seen = 0
    for element_index, element in enumerate(test.elements):
        descending = False
        if element.order is AddressOrder.ANY:
            if any_seen < len(resolution):
                descending = resolution[any_seen]
            any_seen += 1
        if element_index < start_element:
            continue
        site = run_word_element(
            element, element_index, memory, descending, background)
        if site is not None:
            return site
    return None


def make_word_memory(
    words: int,
    width: int,
    fault: Optional[FaultInstance] = None,
    backend: str = "auto",
) -> WordMemory:
    """Construct the word simulation memory for *fault* under *backend*.

    A convenience wrapper over the registry's unified seam,
    :func:`repro.sim.backends.make_memory` -- ``"auto"`` resolution
    consults the registered backends' capability predicates against the
    fault semantics and the *word count* (all backends are
    report-identical at every geometry).
    """
    from repro.sim.backends import make_memory

    return make_memory(words, fault, backend, width=width)


def word_blank_snapshot(
    instance: Optional[FaultInstance],
    words: int,
    width: int,
    backend: str,
) -> int:
    """The packed all-uninitialized snapshot of a word memory.

    Dense memories pack the full ``words * width`` array;
    sparse-snapshot backends (see
    :attr:`repro.sim.backends.Backend.sparse_snapshot`) pack only the
    bound-word lanes plus the per-lane representatives (O(width),
    independent of the word count).
    """
    from repro.sim.backends import get_backend, resolve_backend

    resolved = resolve_backend(backend, (instance,), words, width)
    if get_backend(resolved).sparse_snapshot:
        stored = len(bound_word_cells(
            instance.cells if instance is not None else (), width))
        return pack_word((DONT_CARE,) * (stored + width))
    return pack_word((DONT_CARE,) * (words * width))


def word_detects_instance(
    test: MarchTest,
    fault: FaultInstance,
    words: int,
    width: int,
    backgrounds: Sequence[Background],
    exhaustive_limit: int = 6,
    backend: str = "auto",
) -> bool:
    """Does the per-background word campaign of *test* detect *fault*?

    Each background runs the march from scratch with its own ``⇕``
    resolutions, so the fault is caught exactly when **some**
    background detects it under **every** resolution of its run -- the
    aggregation the coverage oracles implement incrementally.
    """
    from repro.sim.batch import cached_order_resolutions

    any_count = sum(
        1 for el in test.elements if el.order is AddressOrder.ANY)
    resolutions = cached_order_resolutions(any_count, exhaustive_limit)
    for background in backgrounds:
        caught = True
        for resolution in resolutions:
            memory = make_word_memory(words, width, fault, backend)
            if run_word_march(
                    test, memory, background, resolution) is None:
                caught = False
                break
        if caught:
            return True
    return False


def word_escape_sites(
    test: MarchTest,
    fault: FaultInstance,
    words: int,
    width: int,
    backgrounds: Sequence[Background],
    exhaustive_limit: int = 6,
    backend: str = "auto",
) -> List[Tuple[Background, Tuple[bool, ...],
                Optional[WordDetectionSite]]]:
    """Diagnostic sibling of :func:`word_detects_instance`.

    Returns, for every (background, resolution) run, the detection site
    or ``None`` on escape -- what the differential suite compares
    byte-for-byte across backends.
    """
    from repro.sim.batch import cached_order_resolutions

    any_count = sum(
        1 for el in test.elements if el.order is AddressOrder.ANY)
    outcomes = []
    for background in backgrounds:
        for resolution in cached_order_resolutions(
                any_count, exhaustive_limit):
            memory = make_word_memory(words, width, fault, backend)
            outcomes.append((
                background, resolution,
                run_word_march(test, memory, background, resolution)))
    return outcomes


# ----------------------------------------------------------------------
# Sparse word kernel
# ----------------------------------------------------------------------

def bound_word_cells(
    cell_addresses: Sequence[int], width: int
) -> Tuple[int, ...]:
    """Every lane of every word containing a bound cell, ascending.

    The sparse word store keeps *whole words* individually: a bound
    word's non-bound lanes are read and written during explicit visits,
    and storing them separately keeps the shared lane representatives
    untouched until the segment replay (the same discipline that makes
    the bit-oriented sparse kernel exact).
    """
    bound_words = sorted({cell // width for cell in cell_addresses})
    return tuple(
        word * width + lane
        for word in bound_words
        for lane in range(width)
    )


class _LaneSparseCells:
    """Cell store of a :class:`_LaneSparseMemory`.

    Physical-address ``[]`` access compatible with the dense list, but
    holding only the bound-word lanes plus one shared state per lane
    class.  Assigning through a non-stored address updates the lane's
    shared state (element-uniform access, as in the bit-oriented
    sparse store).
    """

    __slots__ = ("bound", "reps", "width")

    def __init__(self, addresses: Tuple[int, ...], width: int):
        #: Bound-word lane states, keyed by flat address ascending (the
        #: packed-snapshot order).
        self.bound = {address: DONT_CARE for address in addresses}
        #: Shared state of every non-bound word's lane *k*.
        self.reps: List[CellState] = [DONT_CARE] * width
        self.width = width

    def __getitem__(self, address: int) -> CellState:
        state = self.bound.get(address)
        if state is None:
            return self.reps[address % self.width]
        return state

    def __setitem__(self, address: int, value: CellState) -> None:
        if address in self.bound:
            self.bound[address] = value
        else:
            self.reps[address % self.width] = value


class _LaneSparseMemory(FaultyMemory):
    """A :class:`FaultyMemory` over a lane-aware sparse cell store.

    Construction, operation semantics and fault machinery inherited
    unchanged; only :meth:`_initial_cells` is swapped, exactly like
    :class:`repro.sim.sparse.SparseMemory`.  Private to
    :class:`SparseWordMemory`, which drives it through the word
    kernel.
    """

    def __init__(
        self,
        size: int,
        fault: Optional[FaultInstance],
        width: int,
        stored: Tuple[int, ...],
    ):
        self._width = width
        self._stored = stored
        super().__init__(size, fault)

    def _initial_cells(self) -> _LaneSparseCells:
        return _LaneSparseCells(self._stored, self._width)

    def state(self) -> Tuple[CellState, ...]:
        """Materialized full-array snapshot (diagnostics; O(size))."""
        cells = self._cells
        full: List[CellState] = [
            cells.reps[address % self._width]
            for address in range(self.size)
        ]
        for address, value in cells.bound.items():
            full[address] = value
        return tuple(full)

    def load_state(self, cells: Tuple[CellState, ...]) -> None:
        """Restore a full-array snapshot.

        Raises:
            ValueError: when some lane's non-stored cells are not all
                equal -- such a state is unreachable at march-element
                boundaries and has no sparse representation.
        """
        if len(cells) != self.size:
            raise ValueError("snapshot size mismatch")
        sparse = self._cells
        reps: List[Optional[CellState]] = [None] * self._width
        for address, value in enumerate(cells):
            if address in sparse.bound:
                continue
            lane = address % self._width
            if reps[lane] is None:
                reps[lane] = value
            elif value != reps[lane]:
                raise ValueError(
                    "sparse word memories require homogeneous "
                    "non-bound words; load the snapshot into a dense "
                    "WordMemory instead")
        sparse.reps = [
            DONT_CARE if rep is None else rep for rep in reps]
        for address in sparse.bound:
            sparse.bound[address] = cells[address]
        self._previous = None

    def packed_state(self) -> int:
        """Packed sparse snapshot: stored lanes (ascending) + lane reps.

        O(width) in the word count -- the word-mode analogue of
        :meth:`repro.sim.sparse.SparseMemory.packed_state`.
        """
        cells = self._cells
        states = list(cells.bound.values())
        states.extend(cells.reps)
        return pack_word(states)

    def load_packed(self, packed: int) -> None:
        cells = self._cells
        states = unpack_word(
            packed, len(cells.bound) + self._width)
        for address, value in zip(cells.bound, states):
            cells.bound[address] = value
        cells.reps = list(states[len(cells.bound):])
        self._previous = None


class _LaneTrajectories(NamedTuple):
    """Per-lane fault-free behaviour of a non-bound word visit."""

    #: One :class:`repro.sim.sparse._RepTrajectory` per lane.
    lanes: Tuple

    def earliest_detect(self) -> Optional[Tuple[int, int, Bit, CellState]]:
        """First mismatching read as ``(op, lane, expected, observed)``.

        Lanes are independent fault-free cells, so the dense visit's
        first failure is the lexicographic minimum over
        ``(op_index, lane)``.
        """
        best: Optional[Tuple[int, int, Bit, CellState]] = None
        for lane, trajectory in enumerate(self.lanes):
            if trajectory.detect is None:
                continue
            op_index, expected, observed = trajectory.detect
            if best is None or (op_index, lane) < (best[0], best[1]):
                best = (op_index, lane, expected, observed)
        return best


class SparseWordMemory(WordMemory):
    """A :class:`WordMemory` storing bound words + one rep per lane.

    The cell store is a :class:`_LaneSparseMemory`, so sensitization,
    masking and settling are the inherited bit-oriented semantics; the
    word kernel (:meth:`word_element_kernel`) collapses the address
    sweep to the fault's bound words plus homogeneous word segments,
    replayed through memoized per-lane trajectories exactly as the PR 2
    bit kernel replays its single representative.
    """

    def __init__(
        self,
        words: int,
        width: int,
        fault: Optional[FaultInstance] = None,
    ):
        from repro.sim.batch import cached_segment_walks

        stored = bound_word_cells(
            fault.cells if fault is not None else (), width)
        cells = _LaneSparseMemory(
            words * width, fault, width, stored)
        super().__init__(words, width, fault=fault, cells=cells)
        bound_words = tuple(sorted({
            address // width for address in stored}))
        self._walk_up, self._walk_down = cached_segment_walks(
            bound_words, words)
        parts = partition_primitives(fault)
        self._visits_touch_bound = (
            bool(parts.state) or bool(parts.wait_sensitized))

    # ------------------------------------------------------------------
    # Size-independent element execution
    # ------------------------------------------------------------------
    def word_element_kernel(
        self,
        element: MarchElement,
        element_index: int,
        descending: bool,
        background: Background,
    ) -> Optional[WordDetectionSite]:
        """Run one element in O(ops x width x bound_words)."""
        from repro.sim.sparse import _rep_trajectory

        ops = element.operations
        targets = background_targets(ops, background)
        down = element.order is AddressOrder.DOWN or (
            element.order is AddressOrder.ANY and descending)
        walk = self._walk_down if down else self._walk_up
        store = self.cells._cells
        trajectories: Optional[_LaneTrajectories] = None
        for item in walk:
            if item[0] == "b":
                site = _visit_word(
                    self, ops, targets, item[1], element_index)
                if site is not None:
                    return site
            else:
                _, first, last, length = item
                if trajectories is None:
                    trajectories = _LaneTrajectories(tuple(
                        _rep_trajectory(
                            lane_operations(ops, background, lane),
                            store.reps[lane])
                        for lane in range(self.width)))
                detect = trajectories.earliest_detect()
                if detect is not None:
                    op_index, lane, expected, observed = detect
                    return WordDetectionSite(
                        element_index, first, lane, op_index,
                        expected, observed)
                self._replay_word_visits(ops, length)
                record = trajectories.lanes[self.width - 1].last_record
                if record is None:
                    self.cells.previous_operation = None
                else:
                    kind, value, pre_state = record
                    self.cells.previous_operation = PreviousOperation(
                        kind, value, pre_state,
                        last * self.width + self.width - 1)
        if trajectories is not None:
            store.reps = [
                trajectory.final_state
                for trajectory in trajectories.lanes
            ]
        return None

    def _replay_word_visits(
        self, ops: Tuple[Operation, ...], count: int
    ) -> None:
        """Replay the bound-cell effects of *count* non-bound visits.

        Per visit, per operation: the wait's data-retention primitives
        (once -- waits are whole-array) or the state-fault settling the
        dense walk performs after each of the word's *width* lane
        operations.  A pure function of the bound states, replayed
        with cycle detection so long segments stay O(1) in their
        length.
        """
        if count <= 0 or not self._visits_touch_bound:
            return
        waits = tuple(op.is_wait for op in ops)
        bound = self.cells._cells.bound
        replay_visits_with_cycle_detection(
            lambda: tuple(bound.values()),
            lambda: self._one_word_visit(waits),
            count)

    def _one_word_visit(self, waits: Tuple[bool, ...]) -> None:
        """Bound-cell effects of one non-bound word visit."""
        cells = self.cells
        for is_wait in waits:
            if is_wait:
                cells._apply_wait_faults()
                cells._settle_state_faults()
            else:
                for _ in range(self.width):
                    cells._settle_state_faults()
