"""Property-based tests (hypothesis) on core data structures and
invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.faults.library import ALL_FPS, SINGLE_CELL_FPS, TWO_CELL_FPS
from repro.faults.linked import are_linked
from repro.faults.operations import read, write
from repro.faults.values import flip
from repro.march.element import AddressOrder, MarchElement
from repro.march.test import MarchTest, parse_march
from repro.memory.injection import FaultInstance
from repro.memory.model import MealyMemory
from repro.memory.sram import FaultyMemory
from repro.sim.engine import detects_instance, run_march

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

bits = st.integers(min_value=0, max_value=1)

operations = st.one_of(
    bits.map(write),
    bits.map(read),
    st.just(read(None)),
)


@st.composite
def consistent_marches(draw):
    """Random fault-free-consistent march tests.

    Built by symbolic tracking: reads always expect the tracked value,
    the first element initializes, every element is non-empty.
    """
    element_count = draw(st.integers(min_value=1, max_value=5))
    elements = []
    value = draw(bits)
    elements.append(MarchElement(
        draw(st.sampled_from(list(AddressOrder))), (write(value),)))
    for _ in range(element_count):
        ops = []
        op_count = draw(st.integers(min_value=1, max_value=6))
        for _ in range(op_count):
            if draw(st.booleans()):
                value_to_write = draw(bits)
                ops.append(write(value_to_write))
                value = value_to_write
            else:
                ops.append(read(value))
        elements.append(MarchElement(
            draw(st.sampled_from(list(AddressOrder))), tuple(ops)))
    return MarchTest("random march", tuple(elements))


# ----------------------------------------------------------------------
# Notation round-trips
# ----------------------------------------------------------------------

class TestNotationRoundTrips:
    @given(consistent_marches())
    @settings(max_examples=60)
    def test_march_notation_round_trip(self, march):
        assert parse_march(march.notation(), name=march.name) == march

    @given(consistent_marches())
    @settings(max_examples=60)
    def test_ascii_notation_round_trip(self, march):
        assert parse_march(
            march.notation(ascii_only=True), name=march.name) == march

    @given(consistent_marches())
    @settings(max_examples=60)
    def test_generated_marches_are_consistent(self, march):
        march.check_consistency()

    @given(consistent_marches())
    @settings(max_examples=40)
    def test_complexity_is_sum_of_element_lengths(self, march):
        assert march.complexity == sum(len(el) for el in march.elements)


# ----------------------------------------------------------------------
# Fault-free simulator == ideal memory
# ----------------------------------------------------------------------

class TestGoldenEquivalence:
    @given(consistent_marches(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_fault_free_memory_never_fails_consistent_marches(
            self, march, size):
        assert run_march(march, FaultyMemory(size)) is None

    @given(st.lists(st.tuples(bits, bits), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_sram_matches_mealy_model(self, script):
        """The behavioral SRAM and the Mealy automaton agree on every
        write/read trace (over initialized cells)."""
        sram = FaultyMemory(2)
        sram.write(0, 0)
        sram.write(1, 0)
        model = MealyMemory(2)
        state = (0, 0)
        for cell, value in script:
            sram.write(cell, value)
            state = model.delta(state, write(value, cell))
            assert sram.read(cell) == model.output(
                state, read(None, cell))
            assert sram.state() == state


# ----------------------------------------------------------------------
# Fault-model invariants
# ----------------------------------------------------------------------

class TestFaultInvariants:
    @given(st.sampled_from(ALL_FPS))
    def test_notation_parse_keeps_effect(self, fp):
        from repro.faults.primitives import parse_fp
        parsed = parse_fp(fp.notation(), ffm=fp.ffm)
        assert parsed.effect == fp.effect
        assert parsed.read_out == fp.read_out

    @given(st.sampled_from(SINGLE_CELL_FPS), st.sampled_from(SINGLE_CELL_FPS))
    def test_linking_requires_state_chain_and_opposite_effects(
            self, fp1, fp2):
        if are_linked(fp1, fp2):
            assert fp2.victim_state == fp1.effect
            assert fp2.effect == flip(fp1.effect)

    @given(st.sampled_from(TWO_CELL_FPS))
    def test_two_cell_fps_have_roles(self, fp):
        if fp.op is not None:
            assert fp.op_role in ("a", "v")


# ----------------------------------------------------------------------
# Detection invariance under placement spread
# ----------------------------------------------------------------------

class TestPlacementInvariance:
    """Detection of a static fault depends only on the relative order
    of its bound cells, not on their absolute positions (the property
    the placement enumeration relies on, README "Three-cell
    layouts")."""

    @given(
        st.sampled_from([fp for fp in TWO_CELL_FPS if fp.op is not None]),
        st.integers(min_value=3, max_value=6),
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_two_cell_spread_invariance(self, fp, size):
        march = parse_march(
            "c(w0) U(r0,r0,w0,r0,w1) U(r1,r1,w1,r1,w0)"
            " D(r0,r0,w0,r0,w1) D(r1,r1,w1,r1,w0) c(r0)",
            name="March SS")
        adjacent = FaultInstance.from_simple(fp, victim=1, aggressor=0)
        spread = FaultInstance.from_simple(
            fp, victim=size - 1, aggressor=0)
        assert detects_instance(march, adjacent, size) == \
            detects_instance(march, spread, size)

    @given(
        st.sampled_from(SINGLE_CELL_FPS),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40)
    def test_single_cell_position_invariance(self, fp, size):
        march = parse_march(
            "c(w0) c(w0,r0,r0,w1) c(w1,r1,r1,w0)", name="March ABL1")
        outcomes = {
            detects_instance(
                march, FaultInstance.from_simple(fp, victim=v), size)
            for v in range(size)
        }
        assert len(outcomes) == 1


# ----------------------------------------------------------------------
# Oracle equivalence
# ----------------------------------------------------------------------

class TestOracleEquivalence:
    @given(consistent_marches())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_incremental_equals_batch(self, march):
        from repro.faults.lists import lf1_faults
        from repro.sim.coverage import CoverageOracle, IncrementalCoverage
        faults = lf1_faults()[:6]
        batch = CoverageOracle(faults).evaluate(march)
        incremental = IncrementalCoverage(faults)
        for element in march.elements:
            incremental.append(element)
        assert incremental.covered_names() == \
            {f.name for f in batch.detected}
