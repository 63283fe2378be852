"""Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact.

Run:  python tools/generate_experiments_md.py
"""

from __future__ import annotations

import pathlib

from repro.eval import (
    ablation_block_size,
    ablation_dap_stages,
    ablation_unroll_axis,
    fig1_energy_breakdown,
    fig3_smt_overhead,
    fig9_microbench,
    fig10_variant_breakdown,
    fig11_full_models,
    fig12_alexnet_per_layer,
    sec7_design_space,
    tbl1_buffer_per_mac,
    tbl2_s2ta_breakdown,
    tbl3_accuracy,
    tbl4_comparison,
    tbl5_summary,
)

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Generated by `tools/generate_experiments_md.py`. Each section reproduces
one artifact of the S2TA paper's evaluation; "measured" numbers come
from this repository's models (energy in calibrated model units — the
reproduction target is the *shape*: orderings, ratios, crossovers; see
`src/repro/energy/costs.py` for the calibration anchors). Regenerate any artifact
individually via `pytest benchmarks/<file> --benchmark-only` or the
functions in `repro.eval`.

## Verdict summary

| Artifact | Paper | Measured | Status |
| --- | --- | --- | --- |
| Fig. 1 energy split | 21/49/20/10 % | 21.5/48.7/19.9/9.9 % | reproduced (calibration anchor) |
| Fig. 3 SMT speedup | 1.6x / 1.8x | 1.59x / 1.92x | reproduced |
| Fig. 3/10 SMT energy vs ZVCG | +43% / +41% | +48% / +44% | reproduced |
| Tbl. 1 buffer B/MAC ordering | S2TA-W < AW < SA < SMT < Eyeriss < SparTen | same | reproduced |
| Tbl. 2 power/area split | MAC+buf dominant; AB-heavy area | same shape; WB power share low (6% vs 12.8%) | partial — WB/AB power split skewed by tiling-reuse assumptions |
| Fig. 9a ZVCG | no speedup, weak energy scaling | same | reproduced |
| Fig. 9b SMT | speedup but > ZVCG energy | same through 62.5% sparsity; crossover at 87.5% | reproduced (minor deviation at the extreme) |
| Fig. 9c S2TA-W | 2x step at >=50% W sparsity | exact | reproduced |
| Fig. 9d S2TA-AW speedups | 1.0/1.33/2.0/2.67/4.0/8.0 | exact | reproduced |
| Tbl. 3 accuracy | <=~1 pt loss after fine-tune | prune drops 10-20 pts, fine-tune recovers to <=~2 pts (proxy task) | reproduced in shape (proxy substitution) |
| Fig. 11 S2TA-AW vs ZVCG | 2.08x energy / 2.11x speedup avg | 2.09x / 2.14x | reproduced |
| Fig. 11 S2TA-W vs ZVCG | 1.13x energy | 1.48x | deviation — W-DBB gain overestimated (see notes) |
| Fig. 12 SparTen / Eyeriss vs AW | 2.2x / 3.1x | ~2.3x / ~3.4x | reproduced |
| Tbl. 4 areas 16 nm | 3.7/4.2/3.4/3.8 mm^2 | 3.70/4.20/3.52/3.70 | reproduced |
| Tbl. 4 TOPS/W ordering | AW > W > ZVCG > SMT | same; AW absolute high (19 vs 14.3) | reproduced in shape |
| Tbl. 5 qualitative | — | encoded + asserted | reproduced |
| Sec. 7 selection | 8x4x4_8x8 | 8x4x4 TPE (grid 4x16, 8x8 within ~9%) | reproduced in shape |

### Known deviations and why

1. **S2TA-W energy vs SA-ZVCG (1.48x vs paper's 1.13x).** In this model
   ZVCG's remaining energy contains a large clock-gated residual
   (calibrated from the dense->ZVCG -25% anchor) which S2TA-W's 2x
   speedup then halves. In the paper's silicon the post-ZVCG energy is
   evidently more work-proportional, so W-DBB's speedup buys less. The
   AW-vs-W gap (paper 1.84x, here ~1.4x) inherits the same bias; AW's
   absolute numbers still land on the paper's.
2. **Table 2 WB vs AB power split.** The model re-reads activations per
   output tile pass (output-stationary) which, at the reference layer's
   M/N shape, weights AB traffic more than the paper's measured 69/93 mW
   WB/AB split. Area split matches.
3. **Sec. 7 grid choice.** The 8x4x4 TPE wins as in the paper; among its
   grids the model ranks 4x16 ~9% below 8x8 because AB reads cost more
   per byte than WB reads, which favours fewer column tiles.
4. **Table 3** runs the paper's exact algorithms (per-block Top-NNZ
   magnitude pruning, DAP straight-through estimator) on a synthetic
   proxy task instead of ImageNet (unavailable offline); the published
   ImageNet rows are echoed alongside for reference.

---
"""

SECTIONS = [
    ("Figure 1 — dense SA energy breakdown",
     "Anchor for the cost model: buffers dominate the INT8 datapath, the "
     "motivation for lean sparsity structures.",
     fig1_energy_breakdown),
    ("Figure 3 — SMT staging-FIFO overhead",
     "The speedup/energy tension of unstructured sparsity on a systolic "
     "array: T2Q2/T2Q4 are faster but burn more than SA-ZVCG.",
     fig3_smt_overhead),
    ("Table 1 — buffer bytes per MAC",
     "Structural comparison; 'model total B' is computed from each "
     "model's geometry, paper columns quoted from the paper.",
     tbl1_buffer_per_mac),
    ("Table 2 — S2TA-AW component breakdown",
     "Power and area shares at the paper's operating point (4/8 weights, "
     "dense activations, 16 nm).",
     tbl2_s2ta_breakdown),
    ("Figure 9a — SA-ZVCG microbenchmark",
     "Zero-value clock gating: energy scales weakly, no speedup.",
     lambda: fig9_microbench("a")),
    ("Figure 9b — SA-SMT microbenchmark",
     "Unstructured sparsity with staging FIFOs: speedup, higher energy.",
     lambda: fig9_microbench("b")),
    ("Figure 9c — S2TA-W microbenchmark",
     "W-DBB alone: a fixed 2x step once weights are pruned to 4/8.",
     lambda: fig9_microbench("c")),
    ("Figure 9d — S2TA-AW microbenchmark",
     "Joint DBB with time-unrolling: speedup tracks activation density "
     "exactly (BZ / a_nnz), up to 8x.",
     lambda: fig9_microbench("d")),
    ("Figure 10 — variant energy breakdown at the typical conv",
     "Per-component energy at 50% W / 62.5% A sparsity, normalized to "
     "SA-ZVCG.",
     fig10_variant_breakdown),
    ("Table 3 — DBB fine-tuning accuracy (proxy)",
     "The prune -> drop -> recover dynamic on the synthetic proxy task, "
     "with the paper's published ImageNet/GLUE rows echoed for reference.",
     lambda: tbl3_accuracy(quick=False)),
    ("Figure 11 — full-model energy and speedup",
     "Four ImageNet CNNs, conv layers, 16 nm, vs SA-ZVCG.",
     fig11_full_models),
    ("Figure 12 — AlexNet per-layer energy",
     "Five accelerators; SparTen wins only on the sparse tail.",
     fig12_alexnet_per_layer),
    ("Table 4 (16 nm) — cross-accelerator comparison",
     "Peak and full-model metrics; 'p.' columns are the paper's "
     "footnote-5 (conv-only) values.",
     lambda: tbl4_comparison("16nm")),
    ("Table 4 (65 nm) — cross-accelerator comparison",
     "Same at the older node, including Eyeriss v2.",
     lambda: tbl4_comparison("65nm")),
    ("Table 5 — qualitative design summary",
     "Sparsity support and overhead structures across designs.",
     tbl5_summary),
    ("Section 7 — design-space exploration",
     "The AxBxC_MxN sweep at 4 TOPS; lowest-power selection.",
     sec7_design_space),
    ("Ablation — unrolling axis (paper footnote 2)",
     "Variable-activation (S2TA-AW) vs variable-weight (S2TA-WA) "
     "time-unrolling on the full models.",
     ablation_unroll_axis),
    ("Ablation — DBB block size (Sec. 8.1)",
     "Signal preserved vs hardware cost across BZ at a fixed 50% bound; "
     "quantifies why 4/8 beats A100's 2/4 at the same ratio.",
     ablation_block_size),
    ("Ablation — DAP cascade depth (Sec. 6.2)",
     "Why the hardware caps DAP at 5 maxpool stages.",
     ablation_dap_stages),
]


def main() -> None:
    parts = [PREAMBLE]
    for title, commentary, runner in SECTIONS:
        result = runner()
        parts.append(f"## {title}\n")
        parts.append(commentary + "\n")
        parts.append("```")
        parts.append(result.render())
        parts.append("```\n")
    out = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
    out.write_text("\n".join(parts))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
