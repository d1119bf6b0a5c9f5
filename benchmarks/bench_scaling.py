"""Scaling characteristics.

* simulator throughput: march operations per second on the faulty SRAM;
* batch-oracle evaluation time as the fault list grows;
* generation time versus fault-list size (the paper reports seconds on
  a 2006 laptop; our pure-Python pipeline stays in the same order of
  magnitude).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.analysis.table import TextTable
from repro.core.generator import MarchGenerator
from repro.faults.library import fp_by_name
from repro.march.known import MARCH_SL
from repro.memory.injection import FaultInstance
from repro.memory.sram import FaultyMemory
from repro.sim.campaign import CoverageCampaign
from repro.sim.coverage import CoverageOracle
from repro.sim.engine import run_march


def test_scaling_sram_throughput(benchmark):
    """Raw faulty-memory operation throughput."""
    instance = FaultInstance.from_simple(
        fp_by_name("CFds_0w1_v0"), victim=2, aggressor=0)
    memory = FaultyMemory(8, instance)

    def churn():
        for address in range(8):
            memory.write(address, 1)
            memory.read(address)
            memory.write(address, 0)
            memory.read(address)

    benchmark(churn)


def test_scaling_march_simulation(benchmark):
    """One full March SL run over a 64-cell faulty memory."""
    instance = FaultInstance.from_simple(
        fp_by_name("CFds_0w1_v0"), victim=63, aggressor=0)

    def simulate():
        memory = FaultyMemory(64, instance)
        return run_march(MARCH_SL.test, memory)

    benchmark(simulate)


@pytest.mark.parametrize("size", [54, 216, 876])
def test_scaling_oracle_evaluation(benchmark, fl1, size, results_dir):
    """Batch coverage evaluation vs fault-list size."""
    subset = fl1[:size]
    oracle = CoverageOracle(subset)
    report = benchmark.pedantic(
        lambda: oracle.evaluate(MARCH_SL.test), rounds=1, iterations=2)
    assert report.complete


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_scaling_campaign_workers(benchmark, fl1, workers, results_dir):
    """Campaign fan-out vs worker count on the full FL#1 list."""
    campaign = CoverageCampaign(
        MARCH_SL.test, {"FL#1": fl1}, workers=workers)
    result = benchmark.pedantic(campaign.run, rounds=1, iterations=1)
    assert result.complete
    table = TextTable(["workers", "wall (s)", "contexts/s"])
    table.add_row([workers, f"{result.wall_seconds:.2f}",
                   f"{result.contexts_per_second:,.0f}"])
    emit(results_dir, f"scaling_campaign_w{workers}", table.render())


@pytest.mark.parametrize("size", [24, 108, 432, 876])
def test_scaling_generation_time(benchmark, fl1, size, results_dir):
    """Generation time vs fault-list size (pruning off to isolate the
    search loop)."""
    subset = fl1[:size]
    result = benchmark.pedantic(
        lambda: MarchGenerator(
            subset, name=f"scale-{size}", prune=False).generate(),
        rounds=1, iterations=1)
    assert result.complete
    table = TextTable(["faults", "O(n)", "CPU (s)"])
    table.add_row([size, f"{result.test.complexity}n",
                   f"{result.seconds:.2f}"])
    emit(results_dir, f"scaling_generation_{size}", table.render())
