"""Table IV (main result): convergence time and speedup.

Table IV compares the convergence time of the conventional power-planning
approach (dominated by the power-grid analysis of one best-case design
iteration) against PowerPlanningDL's prediction time (width prediction plus
Kirchhoff IR-drop prediction), and reports speedups from 1.92x (ibmpg1) up
to 5.87x (ibmpg5), growing with benchmark size.

This bench regenerates the table over the synthetic suite, times both paths
on ibmpg6 with pytest-benchmark, and asserts the paper's shape claims: the
DL flow wins everywhere and the largest grids see the largest speedups.
"""

from __future__ import annotations


from conftest import suite_names

from repro.core import compare_convergence, format_speedup, format_table
from repro.io import write_csv, write_json

_PAPER_SPEEDUPS = {
    "ibmpg1": 1.92,
    "ibmpg2": 1.97,
    "ibmpg3": 3.59,
    "ibmpg4": 4.42,
    "ibmpg5": 5.87,
    "ibmpg6": 5.60,
    "ibmpgnew1": 4.77,
    "ibmpgnew2": 4.47,
}


def _collect_rows(benchmark_cache):
    rows = []
    for name in suite_names():
        prepared = benchmark_cache.get(name)
        comparison = compare_convergence(prepared.golden_plan, prepared.nominal_prediction)
        rows.append(
            {
                "benchmark": name,
                "nodes": prepared.golden_plan.network.statistics().num_nodes,
                "conventional_s": round(comparison.conventional_seconds, 4),
                "powerplanningdl_s": round(comparison.powerplanningdl_seconds, 4),
                "speedup": round(comparison.speedup, 2),
                "paper_speedup": _PAPER_SPEEDUPS[name],
            }
        )
    return rows


def test_table4_convergence_time_and_speedup(benchmark, benchmark_cache, results_dir):
    """Regenerate Table IV; time the DL prediction path on ibmpg6."""
    rows = _collect_rows(benchmark_cache)

    prepared6 = benchmark_cache.get("ibmpg6")
    benchmark(
        prepared6.framework.predict_design,
        prepared6.benchmark.floorplan,
        prepared6.benchmark.topology,
    )

    print()
    print(
        format_table(
            rows,
            title="Table IV: convergence time, conventional vs. PowerPlanningDL",
        )
    )
    best = max(rows, key=lambda row: row["speedup"])
    print(f"best speedup: {best['benchmark']} at {format_speedup(best['speedup'])} "
          f"(paper best: ibmpg5 at 5.87x)")
    write_csv(rows, results_dir / "table4_convergence.csv")
    write_json(
        {row["benchmark"]: row["speedup"] for row in rows}, results_dir / "table4_speedups.json"
    )

    # Paper shape claims.
    assert all(row["speedup"] > 1.0 for row in rows), "DL flow must win on every benchmark"
    small = [row["speedup"] for row in rows if row["benchmark"] == "ibmpg1"]
    large = [row["speedup"] for row in rows if row["benchmark"] in ("ibmpg6", "ibmpgnew1")]
    if small and large:
        assert max(large) > small[0], "speedup should grow with benchmark size"


def test_table4_conventional_analysis_baseline(benchmark, benchmark_cache):
    """Time the conventional build + analyse step the speedup is measured against."""
    from repro.analysis import BatchedAnalysisEngine
    from repro.grid import GridBuilder

    prepared = benchmark_cache.get("ibmpg6")
    builder = GridBuilder(prepared.benchmark.technology)

    def conventional_step():
        network = builder.build(
            prepared.benchmark.floorplan,
            prepared.benchmark.topology,
            prepared.golden_plan.widths,
        )
        # A new engine per step: rebuilding with the same widths keeps the
        # fingerprint, so a shared engine would hit its factor cache.
        return BatchedAnalysisEngine().analyze(network)

    result = benchmark.pedantic(conventional_step, rounds=3, iterations=1)
    assert result.worst_ir_drop > 0
