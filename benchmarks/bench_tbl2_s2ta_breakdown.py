"""Table 2: S2TA-AW power/area breakdown at its design point."""

from repro.eval import tbl2_s2ta_breakdown


def test_bench_tbl2(benchmark, save_result):
    result = benchmark(tbl2_s2ta_breakdown)
    save_result(result)
    area = {row[0]: row[3] for row in result.rows}
    power = {row[0]: row[1] for row in result.rows}
    # Area: the 2 MB activation SRAM is the largest share (paper 57.3%).
    assert abs(area["Activation SRAM (2MB)"] - 57.3) < 6
    assert abs(area["MAC Datapath and Buffers"] - 19.1) < 5
    # Power: MAC datapath + buffers is the largest component.
    assert power["MAC Datapath and Buffers"] == max(power.values())
