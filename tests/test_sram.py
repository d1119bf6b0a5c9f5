"""Operational semantics tests for the faulty SRAM simulator.

Each canonical FFM family gets a behavioural scenario: these tests pin
the semantics documented in :mod:`repro.memory.sram` operation by
operation.
"""

import pytest

from repro.faults.library import fp_by_name
from repro.faults.linked import LinkedFault, Topology
from repro.faults.values import DONT_CARE
from repro.memory.injection import FaultInstance
from repro.memory.sram import FaultyMemory


def memory_with(fp_name, victim=0, aggressor=None, size=2):
    instance = FaultInstance.from_simple(
        fp_by_name(fp_name), victim=victim, aggressor=aggressor)
    return FaultyMemory(size, instance)


class TestGoldenMemory:
    def test_starts_uninitialized(self):
        memory = FaultyMemory(3)
        assert memory.state() == (DONT_CARE,) * 3
        assert memory.read(1) == DONT_CARE

    def test_write_then_read(self):
        memory = FaultyMemory(2)
        memory.write(0, 1)
        assert memory.read(0) == 1
        assert memory.read(1) == DONT_CARE

    def test_wait_is_harmless(self):
        memory = FaultyMemory(2)
        memory.write(0, 1)
        memory.wait()
        assert memory.read(0) == 1

    def test_size_validation(self):
        with pytest.raises(ValueError):
            FaultyMemory(0)

    def test_fault_outside_memory_rejected(self):
        instance = FaultInstance.from_simple(fp_by_name("SF0"), victim=5)
        with pytest.raises(ValueError):
            FaultyMemory(2, instance)

    def test_snapshot_round_trip(self):
        memory = FaultyMemory(2)
        memory.write(0, 1)
        snapshot = memory.state()
        other = FaultyMemory(2)
        other.load_state(snapshot)
        assert other.read(0) == 1

    def test_load_state_size_check(self):
        with pytest.raises(ValueError):
            FaultyMemory(2).load_state((0,))


class TestSingleCellFamilies:
    def test_state_fault_decays_immediately(self):
        memory = memory_with("SF1")
        memory.write(0, 1)
        # SF1: a cell holding 1 flips to 0 before it can be read back.
        assert memory.read(0) == 0

    def test_transition_fault_up(self):
        memory = memory_with("TFU")
        memory.write(0, 0)
        memory.write(0, 1)   # the up transition fails
        assert memory.read(0) == 0

    def test_transition_fault_needs_the_transition(self):
        memory = memory_with("TFU")
        memory.write(0, 1)   # cell was '-', not 0: FP does not match
        assert memory.read(0) == 1

    def test_write_destructive_fault(self):
        memory = memory_with("WDF0")
        memory.write(0, 0)   # initialize: cell was '-', no match
        assert memory.read(0) == 0
        memory.write(0, 0)   # non-transition write now flips the cell
        assert memory.read(0) == 1

    def test_read_destructive_fault(self):
        memory = memory_with("RDF1")
        memory.write(0, 1)
        # The read flips the cell and returns the new, wrong value.
        assert memory.read(0) == 0
        assert memory.read(0) == 0

    def test_deceptive_read_destructive_fault(self):
        memory = memory_with("DRDF1")
        memory.write(0, 1)
        # First read lies politely (returns 1) but flips the cell.
        assert memory.read(0) == 1
        # Second read exposes the damage.
        assert memory.read(0) == 0

    def test_incorrect_read_fault(self):
        memory = memory_with("IRF0")
        memory.write(0, 0)
        assert memory.read(0) == 1   # wrong value returned
        memory.write(0, 1)
        assert memory.read(0) == 1   # cell itself was never disturbed

    def test_data_retention_fault(self):
        memory = memory_with("DRF1")
        memory.write(0, 1)
        assert memory.read(0) == 1
        memory.wait()
        assert memory.read(0) == 0


class TestCouplingFamilies:
    def test_disturb_coupling_by_write(self):
        memory = memory_with("CFds_0w1_v0", victim=1, aggressor=0)
        memory.write(0, 0)
        memory.write(1, 0)
        memory.write(0, 1)   # 0w1 on the aggressor flips the victim
        assert memory.read(1) == 1
        assert memory.read(0) == 1   # aggressor itself is fine

    def test_disturb_coupling_by_read(self):
        memory = memory_with("CFds_1r1_v0", victim=1, aggressor=0)
        memory.write(0, 1)
        memory.write(1, 0)
        assert memory.read(0) == 1   # the read returns the true value...
        assert memory.read(1) == 1   # ...but disturbed the victim

    def test_state_coupling(self):
        memory = memory_with("CFst_a1_v0", victim=1, aggressor=0)
        memory.write(1, 0)
        memory.write(0, 1)   # aggressor enters the coupling state
        assert memory.read(1) == 1

    def test_transition_coupling(self):
        memory = memory_with("CFtr_a1_0w1", victim=1, aggressor=0)
        memory.write(0, 1)
        memory.write(1, 0)
        memory.write(1, 1)   # victim's up transition fails under a=1
        assert memory.read(1) == 0

    def test_transition_coupling_respects_aggressor_state(self):
        memory = memory_with("CFtr_a1_0w1", victim=1, aggressor=0)
        memory.write(0, 0)
        memory.write(1, 0)
        memory.write(1, 1)   # aggressor holds 0: no fault
        assert memory.read(1) == 1

    def test_write_destructive_coupling(self):
        memory = memory_with("CFwd_a0_v1", victim=1, aggressor=0)
        memory.write(0, 0)
        memory.write(1, 1)
        memory.write(1, 1)   # non-transition write flips the victim
        assert memory.read(1) == 0

    def test_read_destructive_coupling(self):
        memory = memory_with("CFrd_a0_v1", victim=1, aggressor=0)
        memory.write(0, 0)
        memory.write(1, 1)
        assert memory.read(1) == 0   # flips and returns the new value

    def test_deceptive_read_destructive_coupling(self):
        memory = memory_with("CFdr_a0_v1", victim=1, aggressor=0)
        memory.write(0, 0)
        memory.write(1, 1)
        assert memory.read(1) == 1   # old value returned...
        assert memory.read(1) == 0   # ...cell flipped

    def test_incorrect_read_coupling(self):
        memory = memory_with("CFir_a0_v1", victim=1, aggressor=0)
        memory.write(0, 0)
        memory.write(1, 1)
        assert memory.read(1) == 0   # wrong value
        memory.write(0, 1)           # leave the coupling state
        assert memory.read(1) == 1


class TestLinkedMasking:
    """Masking emerges operationally from simultaneous primitives."""

    def test_drdf_rdf_link_masks_perfectly(self):
        fault = LinkedFault(
            fp_by_name("DRDF1"), fp_by_name("RDF0"), Topology.LF1)
        memory = FaultyMemory(
            1, FaultInstance.from_linked(fault, (0,)))
        memory.write(0, 1)
        # DRDF1 returns 1 (correct) and flips the cell to 0.
        assert memory.read(0) == 1
        # RDF0 returns 1 (matches the test's expectation!) and flips
        # the cell back to 1: the pair (r1, r1) sees nothing wrong.
        assert memory.read(0) == 1
        assert memory.state() == (1,)

    def test_figure_1_scenario_masks_between_aggressor_writes(self):
        # Two disturb faults with different aggressors, same victim.
        fault = LinkedFault(
            fp_by_name("CFds_0w1_v0"), fp_by_name("CFds_0w1_v1"),
            Topology.LF3)
        memory = FaultyMemory(
            3, FaultInstance.from_linked(fault, (0, 1, 2)))
        for cell in range(3):
            memory.write(cell, 0)
        memory.write(0, 1)         # FP1 flips the victim 0 -> 1
        assert memory[2] == 1
        memory.write(1, 1)         # FP2 masks: victim back to 0
        assert memory.read(2) == 0  # the fault effect is hidden

    def test_pre_state_matching_prevents_same_op_double_fire(self):
        # FP1 and FP2 require opposite victim states; one operation is
        # evaluated against the pre-state, so only one fires.
        fault = LinkedFault(
            fp_by_name("CFds_0w1_v0"), fp_by_name("CFds_0w1_v1"),
            Topology.LF2AA)
        memory = FaultyMemory(
            2, FaultInstance.from_linked(fault, (0, 1)))
        memory.write(0, 0)
        memory.write(1, 0)
        memory.write(0, 1)
        assert memory[1] == 1      # FP1 fired; FP2 (needs v=1) did not
