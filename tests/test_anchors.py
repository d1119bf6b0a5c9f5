"""Integration anchors: the reproduction's calibration claims.

These tests tie our fault semantics, list derivation and placement
interpretation to the paper (README, "Reproduction notes"):

* the paper's generated March ABL and March ABL1 achieve exactly 100 %
  simulated coverage of their target fault lists;
* the hand-made state of the art (March SL) does too;
* the 11n March LF1 covers the single-cell list;
* March C- (linked-fault-blind) shows real coverage gaps -- masking
  exists and matters;
* March RABL's measured 872/876 is pinned as a reproduction finding.
"""

import pytest

from repro.faults.lists import fault_list_1, fault_list_2
from repro.march.known import (
    MARCH_43N,
    MARCH_ABL,
    MARCH_ABL1,
    MARCH_C_MINUS,
    MARCH_LA,
    MARCH_LF1,
    MARCH_LR,
    MARCH_RABL,
    MARCH_SL,
    MATS_PLUS,
)
from repro.sim.coverage import CoverageOracle


@pytest.fixture(scope="module")
def oracle_fl1():
    return CoverageOracle(fault_list_1())


@pytest.fixture(scope="module")
def oracle_fl2():
    return CoverageOracle(fault_list_2())


class TestPaperTestAnchors:
    def test_march_abl_covers_fault_list_1(self, oracle_fl1):
        report = oracle_fl1.evaluate(MARCH_ABL.test)
        assert report.complete, [str(e) for e in report.escapes[:5]]

    def test_march_abl1_covers_fault_list_2(self, oracle_fl2):
        assert oracle_fl2.evaluate(MARCH_ABL1.test).complete

    def test_march_sl_covers_fault_list_1(self, oracle_fl1):
        assert oracle_fl1.evaluate(MARCH_SL.test).complete

    def test_march_lf1_covers_fault_list_2(self, oracle_fl2):
        assert oracle_fl2.evaluate(MARCH_LF1.test).complete

    def test_43n_reconstruction_covers_fault_list_1(self, oracle_fl1):
        assert oracle_fl1.evaluate(MARCH_43N.test).complete

    def test_march_rabl_measured_coverage(self, oracle_fl1):
        """Reproduction finding: RABL misses exactly the four LF2aa
        pairs built on read-disturb CFds components (README, "Recorded
        results")."""
        report = oracle_fl1.evaluate(MARCH_RABL.test)
        escaped = sorted(f.name for f in report.escaped_faults)
        assert escaped == [
            "LF2aa:CFds_0r0_v1->CFds_1r1_v0",
            "LF2aa:CFds_1r1_v0->CFds_0r0_v1",
            "LF2aa:CFds_1r1_v0->CFds_1w0_v1",
            "LF2aa:CFds_1w0_v1->CFds_1r1_v0",
        ]


class TestMaskingMatters:
    """Classic tests lose coverage on linked lists: the paper's
    motivation (Section 1: "Classic march tests cannot detect linked
    faults due to the masking")."""

    def test_march_c_minus_gaps(self, oracle_fl1, oracle_fl2):
        assert oracle_fl1.evaluate(MARCH_C_MINUS.test).coverage < 1.0
        assert oracle_fl2.evaluate(MARCH_C_MINUS.test).coverage < 1.0

    def test_mats_plus_gaps(self, oracle_fl2):
        assert oracle_fl2.evaluate(MATS_PLUS.test).coverage < 0.7

    def test_march_la_and_lr_cover_only_subsets(self, oracle_fl1):
        la = oracle_fl1.evaluate(MARCH_LA.test).coverage
        lr = oracle_fl1.evaluate(MARCH_LR.test).coverage
        assert 0.5 < la < 1.0
        assert 0.5 < lr < 1.0

    def test_linked_aware_tests_beat_blind_ones(self, oracle_fl1):
        blind = oracle_fl1.evaluate(MARCH_C_MINUS.test).coverage
        aware = oracle_fl1.evaluate(MARCH_SL.test).coverage
        assert aware > blind


class TestLayoutSensitivity:
    """The Figure 1 placement interpretation (README, "Three-cell
    layouts")."""

    def test_abl_under_strict_layout_loses_lf3_pairs(self):
        strict = CoverageOracle(fault_list_1(), lf3_layout="all")
        report = strict.evaluate(MARCH_ABL.test)
        assert not report.complete
        assert all(
            f.name.startswith("LF3:") for f in report.escaped_faults)

    def test_march_sl_is_layout_robust(self):
        strict = CoverageOracle(fault_list_1(), lf3_layout="all")
        assert strict.evaluate(MARCH_SL.test).complete
