"""Benchmark: Table I — single-rail vs dual-rail on both libraries.

Regenerates the paper's Table I columns (cell area, sequential area, average
power, leakage, average/max latency, valid→spacer time, inferences per
second) for the clocked single-rail baseline and the proposed dual-rail
datapath on the UMC LL and FULL DIFFUSION library stand-ins, and checks the
relative relationships the paper reports:

* dual-rail cell area within a small factor of single-rail (not 2×);
* dual-rail *average* latency below the single-rail clock period, with the
  maximum latency of the same order;
* similar sequential area despite twice as many sequential cells;
* dual-rail switching power higher, leakage comparable;
* throughput (inferences/s) of the same order for both designs.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    dual_rail_table_row,
    format_table1,
    measure_dual_rail,
    measure_single_rail,
    single_rail_table_row,
)


def _rows_for_library(workload, library):
    single = measure_single_rail(workload, library)
    dual = measure_dual_rail(workload, library)
    return single, dual


@pytest.mark.parametrize("library_fixture", ["umc", "full_diffusion"])
def test_table1_rows(benchmark, table1_workload, library_fixture, request):
    library = request.getfixturevalue(library_fixture)

    single, dual = benchmark.pedantic(
        _rows_for_library, args=(table1_workload, library), rounds=1, iterations=1
    )

    rows = [single_rail_table_row(single), dual_rail_table_row(dual)]
    print(f"\nTable I rows ({library.name}):")
    print(format_table1(rows))

    # Functional correctness of both implementations against the golden model.
    assert single.correctness == 1.0
    assert dual.correctness == 1.0
    assert dual.monotonic

    # Area: dual-rail cell area is similar to single-rail (within 2x, not the
    # naive 2x-plus of unoptimised dual-rail logic).
    area_ratio = dual.synthesis.area.total / single.synthesis.area.total
    assert 0.8 < area_ratio < 2.0

    # Sequential area is similar despite the dual-rail design having twice
    # the number of sequential cells (C-elements vs flip-flops).
    seq_ratio = dual.synthesis.area.sequential / single.synthesis.area.sequential
    assert 0.5 < seq_ratio < 2.0
    assert dual.synthesis.area.sequential_cell_count > single.synthesis.area.sequential_cell_count

    # Latency: the dual-rail average beats the single-rail clock period; the
    # worst case stays in the same order of magnitude.
    assert dual.latency.average < single.clock_period_ps
    assert dual.latency.maximum < 3.0 * single.clock_period_ps

    # Power: higher switching activity for dual-rail, comparable leakage.
    assert dual.power.dynamic_uw > single.power.dynamic_uw
    leak_ratio = dual.power.leakage_nw / single.power.leakage_nw
    assert 0.3 < leak_ratio < 3.0

    # Throughput: same order of magnitude (single-rail is pipelined per cycle,
    # dual-rail pays the return-to-spacer phase).
    thr_ratio = dual.throughput_millions / single.throughput_millions
    assert 0.2 < thr_ratio < 5.0


def test_table1_full_report(benchmark, table1_workload, umc, full_diffusion):
    """Print the complete four-row Table I for the record."""
    def build_rows():
        rows = []
        for library in (umc, full_diffusion):
            single, dual = _rows_for_library(table1_workload, library)
            rows.append(single_rail_table_row(single))
            rows.append(dual_rail_table_row(dual))
        return rows
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = format_table1(rows)
    print("\n" + text)
    assert len(rows) == 4
    assert {r.technology for r in rows} == {"UMC LL", "FULL DIFFUSION"}
