"""Ablations over the generator's design choices.

Four axes:

* proposal sources: walker+shapes (default) vs walker-only vs
  shapes-only;
* redundancy pruning: on vs off (the paper's non-redundancy pass);
* LF3 placement layout: the calibrated ``straddle`` vs the stricter
  ``all`` (README, "Three-cell layouts");
* order generalization: whether fixed orders are relaxed to ``⇕``.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.table import TextTable
from repro.core.generator import MarchGenerator
from repro.sim.coverage import CoverageOracle


def _run(faults, **options):
    return MarchGenerator(faults, name="ablation", **options).generate()


def test_ablation_proposal_sources(benchmark, fl2, results_dir):
    def run_all():
        return {
            "walker+shapes": _run(fl2),
            "shapes only": _run(fl2, use_walker=False),
            "walker only": _run(fl2, use_shapes=False),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = TextTable(
        ["proposal source", "O(n)", "coverage %", "CPU (s)"])
    for label, result in results.items():
        table.add_row([
            label, f"{result.test.complexity}n",
            f"{100 * result.report.coverage:.1f}",
            f"{result.seconds:.2f}"])
    emit(results_dir, "ablation_proposals", table.render())
    assert results["walker+shapes"].complete
    assert results["shapes only"].complete


def test_ablation_pruning(benchmark, fl1, results_dir):
    def run_both():
        return _run(fl1, prune=False), _run(fl1, prune=True)

    unpruned, pruned = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    assert unpruned.complete and pruned.complete
    assert pruned.test.complexity <= unpruned.test.complexity
    table = TextTable(["pruning", "O(n)", "elements", "CPU (s)"])
    table.add_row(["off", f"{unpruned.test.complexity}n",
                   len(unpruned.test), f"{unpruned.seconds:.2f}"])
    table.add_row(["on", f"{pruned.test.complexity}n",
                   len(pruned.test), f"{pruned.seconds:.2f}"])
    emit(results_dir, "ablation_pruning", table.render())


def test_ablation_lf3_layout(benchmark, fl1, results_dir):
    """Generating against the stricter all-orderings LF3 layout.

    The resulting test must still fully cover the calibrated straddle
    semantics (it is a superset requirement)."""

    def run_both_layouts():
        straddle = _run(fl1)
        strict = _run(fl1, lf3_layout="all")
        return straddle, strict

    straddle, strict = benchmark.pedantic(
        run_both_layouts, rounds=1, iterations=1)
    assert straddle.complete
    table = TextTable(
        ["LF3 layout", "O(n)", "coverage %", "CPU (s)"])
    for label, result in (("straddle", straddle), ("all", strict)):
        table.add_row([
            label, f"{result.test.complexity}n",
            f"{100 * result.report.coverage:.1f}",
            f"{result.seconds:.2f}"])
    emit(results_dir, "ablation_lf3_layout", table.render())
    # The strict-layout test still covers the straddle semantics.
    oracle = CoverageOracle(fl1, lf3_layout="straddle")
    assert oracle.evaluate(strict.test).complete


def test_ablation_order_generalization(benchmark, fl2, results_dir):
    def run_both():
        return (
            _run(fl2, generalize_orders=False),
            _run(fl2, generalize_orders=True),
        )

    fixed, general = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert fixed.complete and general.complete
    from repro.march.element import AddressOrder
    any_count = sum(
        1 for el in general.test.elements
        if el.order is AddressOrder.ANY)
    table = TextTable(["generalization", "O(n)", "⇕ elements"])
    table.add_row(["off", f"{fixed.test.complexity}n",
                   sum(1 for el in fixed.test.elements
                       if el.order is AddressOrder.ANY)])
    table.add_row(["on", f"{general.test.complexity}n", any_count])
    emit(results_dir, "ablation_orders", table.render())
