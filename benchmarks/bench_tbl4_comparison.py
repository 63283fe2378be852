"""Table 4: the cross-accelerator comparison at 16 nm and 65 nm."""

import pytest

from repro.eval import tbl4_comparison


@pytest.mark.parametrize("tech", ["16nm", "65nm"])
def test_bench_tbl4(median_rounds, save_result, tech):
    result, _ = median_rounds(tbl4_comparison, tech)
    save_result(result)
    tops_w = {row[0]: row[5] for row in result.rows}
    if tech == "16nm":
        # Efficiency ordering: AW > W > ZVCG > SMT (Table 4).
        assert (tops_w["S2TA-AW"] > tops_w["S2TA-W"]
                > tops_w["SA-ZVCG"] > tops_w["SA-SMT"])
        assert tops_w["SA-ZVCG"] == pytest.approx(10.5, abs=1.5)
        # Effective 8 TOPS at 50% sparsity for the DBB designs.
        tops = {row[0]: row[3] for row in result.rows}
        assert tops["S2TA-AW"] == pytest.approx(8.0, rel=0.15)
        assert tops["S2TA-W"] == pytest.approx(8.0, rel=0.15)
    else:
        assert tops_w["S2TA-AW"] > tops_w["S2TA-W"] > tops_w["SA-ZVCG"]
        # Eyeriss v2's tiny MAC count caps its throughput (kInf/s).
        inf_s = {row[0]: row[7] for row in result.rows}
        assert inf_s["Eyeriss v2"] < inf_s["SA-ZVCG"]
