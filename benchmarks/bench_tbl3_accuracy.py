"""Table 3: DBB pruning + fine-tuning accuracy (proxy reproduction)."""

from repro.eval import tbl3_accuracy


def test_bench_tbl3(benchmark, median_rounds, save_result):
    result, _ = median_rounds(tbl3_accuracy)
    save_result(result)
    by_variant = {row[0]: row for row in result.rows}
    for name, row in by_variant.items():
        baseline, pruned, finetuned, loss = row[1:]
        benchmark.extra_info[name] = f"{baseline}->{pruned}->{finetuned}"
        # Fine-tuning must recover (Table 3's point).
        assert finetuned >= pruned
    # Moderate DBB (the paper's chosen ratios) lands within a few points.
    assert by_variant["A/W-DBB 3/8+4/8"][4] < 5.0
    # Aggressive 2/8 weight pruning costs more than moderate 4/8.
    assert (by_variant["W-DBB 2/8 (aggressive)"][2]
            <= by_variant["W-DBB 4/8"][2])
