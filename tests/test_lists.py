"""Unit tests for the realistic linked fault lists (paper Section 6)."""

import pytest

from repro.faults.linked import Topology, is_self_detecting
from repro.faults.lists import (
    cfds_cfds_pairs,
    fault_list_1,
    fault_list_2,
    faults_by_topology,
    lf1_faults,
    lf2aa_faults,
    lf2av_faults,
    lf2va_faults,
    lf3_faults,
    named_subset,
    simple_single_cell_faults,
    simple_static_faults,
    simple_two_cell_faults,
)
from repro.faults.primitives import FaultClass


class TestClassSizes:
    """The derivation's class sizes are pinned (README, "Fault
    lists")."""

    def test_lf1(self):
        assert len(lf1_faults()) == 24

    def test_lf2aa(self):
        assert len(lf2aa_faults()) == 336

    def test_lf2av(self):
        assert len(lf2av_faults()) == 96

    def test_lf2va(self):
        assert len(lf2va_faults()) == 84

    def test_lf3(self):
        assert len(lf3_faults()) == 336

    def test_fault_list_1(self):
        assert len(fault_list_1()) == 876

    def test_fault_list_2(self):
        assert len(fault_list_2()) == 24

    def test_fault_list_2_is_lf1(self):
        assert fault_list_2() == lf1_faults()

    def test_cfds_cfds_subclass(self):
        assert len(cfds_cfds_pairs()) == 72

    def test_simple_lists(self):
        assert len(simple_single_cell_faults()) == 12
        assert len(simple_two_cell_faults()) == 36
        assert len(simple_static_faults()) == 48


class TestStructuralInvariants:
    def test_names_are_unique_within_list_1(self):
        names = [f.name for f in fault_list_1()]
        assert len(names) == len(set(names))

    def test_every_fault_has_consistent_topology(self):
        for fault in fault_list_1():
            assert fault.cells == fault.topology.cells

    def test_fp1_never_self_detecting(self):
        for fault in fault_list_1():
            assert not is_self_detecting(fault.fp1), fault.name

    def test_fp1_is_operation_sensitized(self):
        for fault in fault_list_1():
            assert fault.fp1.op is not None, fault.name

    def test_fp2_masks_fp1(self):
        # F2 = NOT F1 and I2 = Fv1 on the victim (Definition 7).
        for fault in fault_list_1():
            assert fault.fp2.effect != fault.fp1.effect, fault.name
            assert fault.fp2.victim_state == fault.fp1.effect, fault.name

    def test_paper_example_is_in_the_lists(self):
        # Eq. (6)/(12): CFds <0w1;0/1> -> CFds <0w1;1/0>.
        names = {f.name for f in fault_list_1()}
        assert "LF2aa:CFds_0w1_v0->CFds_0w1_v1" in names
        assert "LF3:CFds_0w1_v0->CFds_0w1_v1" in names

    def test_fp2_families(self):
        allowed_single = {FaultClass.WDF, FaultClass.DRDF, FaultClass.RDF,
                          FaultClass.SF}
        allowed_two = {FaultClass.CFDS, FaultClass.CFWD, FaultClass.CFRD,
                       FaultClass.CFDR, FaultClass.CFST}
        for fault in fault_list_1():
            allowed = allowed_single if fault.fp2.cells == 1 else allowed_two
            assert fault.fp2.ffm in allowed, fault.name

    def test_topology_grouping(self):
        groups = faults_by_topology(fault_list_1())
        assert {t: len(fs) for t, fs in groups.items()} == {
            Topology.LF1: 24,
            Topology.LF2AA: 336,
            Topology.LF2AV: 96,
            Topology.LF2VA: 84,
            Topology.LF3: 336,
        }


class TestDeterminism:
    def test_lists_are_reproducible(self):
        assert [f.name for f in fault_list_1()] == \
            [f.name for f in fault_list_1()]


class TestNamedSubset:
    def test_build_from_names(self):
        faults = named_subset(
            ["CFds_0w1_v0->CFds_0w1_v1"], Topology.LF3)
        assert len(faults) == 1
        assert faults[0].topology is Topology.LF3

    def test_rejects_unknown_names(self):
        with pytest.raises(KeyError):
            named_subset(["NOPE->WDF0"], Topology.LF1)
