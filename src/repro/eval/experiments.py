"""Experiment runners — one per paper artifact.

Each function reproduces one table or figure of the paper's evaluation
(Sec. 2 and 8) and returns an :class:`ExperimentResult` carrying the
same rows/series the paper reports, annotated with the paper's published
values where the artifact states them. Absolute joules are model units
(:mod:`repro.energy.costs` documents the calibration); the reproduction
target is the shape — orderings, ratios and crossovers.

Two fidelity tiers back the full-model artifacts (Fig. 11 / Fig. 12):

- **Analytic fast path** (default): closed-form layer events from the
  density profile — milliseconds per network, and what the golden
  headline pins in ``tests/test_golden_headlines.py`` freeze.
- **Functional ground truth** (``functional=True``): every conv layer
  synthesizes its operands' DBB non-zero patterns at its actual GEMM
  shape and executes on the cycle-level simulator; measured events
  price through the same energy model.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.accel import (
    SCNN,
    S2TAAW,
    S2TAW,
    DenseSA,
    EyerissV2,
    SmtSA,
    SparTen,
    ZvcgSA,
)
from repro.accel.base import AcceleratorModel
from repro.core.dbb import DBBSpec
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.eval.tables import ExperimentResult
from repro.models import get_spec
from repro.obs.trace import traced
from repro.workloads.typical import typical_conv_layer

__all__ = [
    "functional_operands",
    "fig1_energy_breakdown",
    "fig3_smt_overhead",
    "fig9_microbench",
    "fig10_variant_breakdown",
    "fig11_full_models",
    "fig12_alexnet_per_layer",
    "xval_functional_vs_analytic",
    "tbl1_buffer_per_mac",
    "tbl2_s2ta_breakdown",
    "tbl3_accuracy",
    "tbl4_comparison",
    "tbl5_summary",
    "sec7_design_space",
]

FULL_MODELS = ("resnet50", "vgg16", "mobilenet_v1", "alexnet")

#: The systolic comparison set of the full-model artifacts (Fig. 11)
#: and the roofline analysis — keep the two artifacts in lockstep.
SYSTOLIC_VARIANTS = ("SA-ZVCG", "SMT-T2Q2", "S2TA-W", "S2TA-AW")


@lru_cache(maxsize=32)
def functional_operands(
    m: int, k: int, n: int,
    w_nnz: int = 4,
    a_density: float = 0.5,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Memoized concrete INT8 operands for one functional sweep point.

    The DENSE/ZVCG/WDBB/AWDBB variant sweeps (and the per-layer ``a_nnz``
    density sweep inside AWDBB) all drive the *same* workload through the
    functional simulator; this memo materializes each workload's operands
    once, and — because reading a WDBB output compresses weights through
    :func:`repro.core.gemm.compress_cached` — each weight tensor is
    *compressed* at most once for the entire sweep instead of per mode
    and per density point. Returned arrays are shared: treat them as
    read-only (they are flagged unwriteable and tested so).

    This entry-count memo serves the small fixed set of microbench sweep
    points; the full-model functional pipeline synthesizes per-layer
    operands once per operand key and batch instead (see
    :mod:`repro.eval.runner`).
    """
    from repro.workloads.microbench import microbench_operands, sweep_layer

    w_sparsity = 1.0 - (w_nnz / 8.0)
    layer = sweep_layer(w_sparsity, 1.0 - a_density, m=m, k=k, n=n)
    a, w = microbench_operands(layer, rng=np.random.default_rng(seed))
    a.setflags(write=False)
    w.setflags(write=False)
    return a, w


def _costs(dram_pj_per_byte: Optional[float] = None) -> CostModel:
    """The default cost model, optionally re-pricing the off-chip DRAM
    interface (``--dram-pj-per-byte``). The DRAM component is reported
    beside — never inside — the die-only calibrated totals, so changing
    it cannot move a golden headline (pinned in the test suite)."""
    if dram_pj_per_byte is None:
        return DEFAULT_COSTS
    return dataclasses.replace(DEFAULT_COSTS,
                               dram_pj_per_byte=dram_pj_per_byte)


def _sa_variants(tech: str = "16nm",
                 dram_gbps: Optional[float] = None,
                 costs: CostModel = DEFAULT_COSTS
                 ) -> Dict[str, AcceleratorModel]:
    kwargs = {"tech": tech, "dram_gbps": dram_gbps, "costs": costs}
    return {
        "SA": DenseSA(**kwargs),
        "SA-ZVCG": ZvcgSA(**kwargs),
        "SMT-T2Q2": SmtSA(fifo_depth=2, **kwargs),
        "SMT-T2Q4": SmtSA(fifo_depth=4, **kwargs),
        "S2TA-W": S2TAW(**kwargs),
        "S2TA-AW": S2TAAW(**kwargs),
    }


# --------------------------------------------------------------------- #
# Figure 1
# --------------------------------------------------------------------- #

def fig1_energy_breakdown() -> ExperimentResult:
    """Energy breakdown of a dense INT8 SA at typical 50% sparsity."""
    layer = typical_conv_layer(0.5, 0.5)
    result = DenseSA().run_layer(layer)
    fracs = result.breakdown.fractions()
    paper = {"sram": 21, "buffers": 49, "datapath": 20, "actfn": 10}
    labels = {
        "sram": "SRAM buffers",
        "buffers": "PE-array buffers (operands+acc)",
        "datapath": "MAC datapath",
        "actfn": "Activation fn (MCU cluster)",
    }
    rows = [
        [labels[key], round(fracs[key] * 100, 1), paper[key]]
        for key in ("sram", "buffers", "datapath", "actfn")
    ]
    return ExperimentResult(
        artifact="Figure 1",
        title="Dense INT8 systolic array energy breakdown (50% sparsity)",
        headers=["component", "model %", "paper %"],
        rows=rows,
        notes=["the INT8 MAC datapath is dwarfed by operand/result buffers"],
    )


# --------------------------------------------------------------------- #
# Figure 3
# --------------------------------------------------------------------- #

def fig3_smt_overhead() -> ExperimentResult:
    """SA vs SA-ZVCG vs SMT variants: energy/area and speedup at 50/50."""
    layer = typical_conv_layer(0.5, 0.5)
    variants = {k: v for k, v in _sa_variants().items()
                if k in ("SA", "SA-ZVCG", "SMT-T2Q2", "SMT-T2Q4")}
    baseline = variants["SA-ZVCG"].run_layer(layer)
    rows = []
    paper_speedups = {"SA": 1.0, "SA-ZVCG": 1.0,
                      "SMT-T2Q2": 1.6, "SMT-T2Q4": 1.8}
    for name, accel in variants.items():
        result = accel.run_layer(layer)
        rows.append([
            name,
            round(result.energy_pj / baseline.energy_pj, 2),
            round((result.breakdown.datapath) / baseline.energy_pj, 2),
            round((result.breakdown.buffers) / baseline.energy_pj, 2),
            round(accel.area_mm2(), 2),
            round(baseline.cycles / result.cycles, 2),
            paper_speedups[name],
        ])
    return ExperimentResult(
        artifact="Figure 3",
        title="SMT staging-FIFO overhead at 50%/50% sparsity (vs SA-ZVCG)",
        headers=["variant", "energy", "macs part", "buffers part",
                 "area mm2", "speedup", "paper speedup"],
        rows=rows,
        notes=["SMT achieves speedup but its buffers make it *less* "
               "energy-efficient than even SA-ZVCG"],
    )


# --------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------- #

def tbl1_buffer_per_mac() -> ExperimentResult:
    """Buffer bytes per INT8 MAC across architectures."""
    paper = [
        ("SCNN", 1280.0, 384.0, 1650.0),
        ("SparTen", 864.0, 128.0, 992.0),
        ("Eyeriss v2", 165.0, 40.0, 205.0),
        ("SA-SMT", 16.0, 4.0, 20.0),
        ("Systolic Array", 2.0, 4.0, 6.0),
        ("S2TA-W", 0.375, 0.5, 0.875),
        ("S2TA-AW", 0.75, 4.0, 4.75),
    ]
    from repro.accel import SCNN

    model = {
        "SCNN": SCNN().buffer_bytes_per_mac,
        "SparTen": SparTen().buffer_bytes_per_mac,
        "Eyeriss v2": EyerissV2().buffer_bytes_per_mac,
        "SA-SMT": SmtSA().buffer_bytes_per_mac,
        "Systolic Array": DenseSA().buffer_bytes_per_mac,
        "S2TA-W": S2TAW().buffer_bytes_per_mac,
        "S2TA-AW": S2TAAW().buffer_bytes_per_mac,
    }
    rows = [
        [name, operands, accs, total,
         round(model[name], 3) if name in model else "-"]
        for name, operands, accs, total in paper
    ]
    return ExperimentResult(
        artifact="Table 1",
        title="PE buffer storage per INT8 MAC",
        headers=["architecture", "paper operands B", "paper acc B",
                 "paper total B", "model total B"],
        rows=rows,
        notes=["outer-product unstructured designs need KBs per MAC; "
               "S2TA's TPE shares buffers across many MACs"],
    )


# --------------------------------------------------------------------- #
# Table 2
# --------------------------------------------------------------------- #

def tbl2_s2ta_breakdown() -> ExperimentResult:
    """S2TA-AW power/area breakdown at the Table 2 operating point
    (4/8 weights, dense activations, 16 nm)."""
    aw = S2TAAW()
    layer = typical_conv_layer(0.5, 1.0)  # dense activations
    result = aw.run_layer(layer)
    b = result.breakdown
    costs = aw.costs
    wb = result.events.sram_w_read_bytes * costs.sram_wb_read_pj
    ab = b.sram - wb
    total = b.total_pj
    power = {
        "MAC Datapath and Buffers": (b.datapath + b.buffers) / total * 100,
        "Weight SRAM (512KB)": wb / total * 100,
        "Activation SRAM (2MB)": ab / total * 100,
        "Cortex-M33 MCU x4": b.actfn / total * 100,
        "DAP Array": b.dap / total * 100,
    }
    area = aw.area_breakdown_mm2()
    total_area = sum(area.values())
    area_pct = {
        "MAC Datapath and Buffers": area["pe_array"] / total_area * 100,
        "Weight SRAM (512KB)": area["sram"] * 0.2 / total_area * 100,
        "Activation SRAM (2MB)": area["sram"] * 0.8 / total_area * 100,
        "Cortex-M33 MCU x4": area["mcu"] / total_area * 100,
        "DAP Array": area["dap"] / total_area * 100,
    }
    paper_power = {
        "MAC Datapath and Buffers": 58.7,
        "Weight SRAM (512KB)": 12.8,
        "Activation SRAM (2MB)": 17.2,
        "Cortex-M33 MCU x4": 9.3,
        "DAP Array": 2.0,
    }
    paper_area = {
        "MAC Datapath and Buffers": 19.1,
        "Weight SRAM (512KB)": 14.3,
        "Activation SRAM (2MB)": 57.3,
        "Cortex-M33 MCU x4": 8.0,
        "DAP Array": 1.3,
    }
    rows = [
        [name, round(power[name], 1), paper_power[name],
         round(area_pct[name], 1), paper_area[name]]
        for name in paper_power
    ]
    return ExperimentResult(
        artifact="Table 2",
        title="S2TA-AW component power/area breakdown (16 nm, 8x4x4_8x8)",
        headers=["component", "model power %", "paper power %",
                 "model area %", "paper area %"],
        rows=rows,
        notes=[f"total area {aw.area_mm2():.2f} mm^2 (paper 3.77)",
               "DAP bypassed at dense activations; its power share is "
               "reported at the A-DBB operating point in Fig. 10"],
    )


# --------------------------------------------------------------------- #
# Figure 9
# --------------------------------------------------------------------- #

def fig9_microbench(panel: str) -> ExperimentResult:
    """The Sec. 8.2 synthetic sweeps. ``panel`` is one of a/b/c/d."""
    from repro.workloads.microbench import SWEEP_SPARSITIES

    if panel not in "abcd" or len(panel) != 1:
        raise ValueError(f"panel must be one of 'a'..'d', got {panel!r}")
    accel = {
        "a": ZvcgSA(),
        "b": SmtSA(fifo_depth=2),
        "c": S2TAW(),
        "d": S2TAAW(),
    }[panel]
    titles = {
        "a": "SA-ZVCG: energy scales weakly, no speedup",
        "b": "SA-SMT: speedup but higher energy than SA-ZVCG",
        "c": "S2TA-W: fixed 2x speedup step at >=50% weight sparsity",
        "d": "S2TA-AW: speedup and energy scale with activation sparsity",
    }
    zvcg = ZvcgSA()
    # Normalization anchor: SA-ZVCG at 50% weight / 50% act sparsity.
    anchor = zvcg.microbench_layer(0.5, 0.5)
    rows = []
    for sparsity in SWEEP_SPARSITIES:
        if panel == "d":
            # x-axis: activation DBB sparsity; series: W-DBB 50% / 80%.
            a_density = 1.0 - sparsity
            a_nnz = max(1, round(a_density * 8))
            r50 = accel.microbench_layer(0.5, a_density, a_nnz=a_nnz)
            r80 = accel.microbench_layer(0.2, a_density, w_nnz=2,
                                         a_nnz=a_nnz)
            ref = zvcg.microbench_layer(0.5, a_density)
        else:
            w_density = 1.0 - sparsity
            w_nnz = max(1, round(w_density * 8))
            r50 = accel.microbench_layer(w_density, 0.5, w_nnz=w_nnz)
            r80 = accel.microbench_layer(w_density, 0.2, w_nnz=w_nnz)
            ref = zvcg.microbench_layer(w_density, 0.5)
        rows.append([
            f"{sparsity * 100:g}%",
            round(r50.energy_pj / anchor.energy_pj, 3),
            round(r80.energy_pj / anchor.energy_pj, 3),
            round(ref.cycles / r50.cycles, 2),
        ])
    x_label = ("activation DBB sparsity" if panel == "d"
               else "weight DBB sparsity")
    series = ("W-DBB" if panel == "d" else "act")
    from repro.eval.plots import series_chart

    chart = series_chart(
        [row[0] for row in rows],
        {"energy": [row[1] for row in rows],
         "speedup": [row[3] for row in rows]},
    )
    return ExperimentResult(
        artifact=f"Figure 9{panel}",
        title=titles[panel],
        headers=[x_label, f"energy ({series} 50%)", f"energy ({series} 80%)",
                 "speedup vs SA-ZVCG"],
        rows=rows,
        notes=["energy normalized to SA-ZVCG at 50%/50% sparsity",
               "series view:\n" + chart],
    )


# --------------------------------------------------------------------- #
# Figure 10
# --------------------------------------------------------------------- #

def fig10_variant_breakdown() -> ExperimentResult:
    """Energy breakdown + speedup on the typical conv (50% W, 62.5% A)."""
    layer = typical_conv_layer(0.5, 0.375)
    variants = _sa_variants()
    baseline = variants["SA-ZVCG"].run_layer(layer)
    paper_speedup = {"SA": 1.0, "SA-ZVCG": 1.0, "SMT-T2Q2": 1.7,
                     "SMT-T2Q4": 1.9, "S2TA-W": 2.0, "S2TA-AW": 2.7}
    rows = []
    for name, accel in variants.items():
        r = accel.run_layer(layer)
        scale = baseline.energy_pj
        rows.append([
            name,
            round(r.breakdown.datapath / scale, 3),
            round(r.breakdown.buffers / scale, 3),
            round(r.breakdown.sram / scale, 3),
            round(r.breakdown.dap / scale, 3),
            round(r.breakdown.actfn / scale, 3),
            round(r.energy_pj / scale, 3),
            round(baseline.cycles / r.cycles, 2),
            paper_speedup[name],
        ])
    aw_sram = rows[-1][3]
    w_sram = rows[-2][3]
    return ExperimentResult(
        artifact="Figure 10",
        title="Variant energy breakdown at 50% W / 62.5% A sparsity "
              "(normalized to SA-ZVCG)",
        headers=["variant", "datapath", "buffers", "sram", "dap", "actfn",
                 "total", "speedup", "paper speedup"],
        rows=rows,
        notes=[f"S2TA-AW SRAM energy is {w_sram / max(aw_sram, 1e-9):.1f}x "
               f"lower than S2TA-W (paper: 3.1x)"],
    )


# --------------------------------------------------------------------- #
# Table 3
# --------------------------------------------------------------------- #

PAPER_TABLE3 = [
    # (model, dataset, baseline, a_dbb, w_dbb, accuracy)
    ("LeNet-5", "MNIST", 99.0, "3/8", "-", 98.9),
    ("LeNet-5", "MNIST", 99.0, "-", "2/8", 98.9),
    ("LeNet-5", "MNIST", 99.0, "4/8", "2/8", 98.8),
    ("MobileNetV1", "ImageNet", 70.1, "3.8/8", "-", 69.4),
    ("MobileNetV1", "ImageNet", 70.1, "-", "4/8", 69.8),
    ("MobileNetV1*", "ImageNet", 70.1, "4.8/8", "4/8", 68.9),
    ("AlexNet", "ImageNet", 55.7, "3.8/8", "-", 54.7),
    ("AlexNet", "ImageNet", 55.7, "-", "4/8", 54.9),
    ("AlexNet*", "ImageNet", 55.7, "3.9/8", "4/8", 54.6),
    ("VGG-16", "ImageNet", 71.5, "3.1/8", "-", 71.8),
    ("VGG-16", "ImageNet", 71.5, "-", "3/8", 71.4),
    ("VGG-16*", "ImageNet", 71.5, "3.1/8", "3/8", 71.9),
    ("ResNet-50V1", "ImageNet", 75.0, "-", "4/8", 74.5),
    ("ResNet-50V1", "ImageNet", 75.0, "3.49/8", "-", 74.4),
    ("ResNet-50V1*", "ImageNet", 75.0, "3.49/8", "3/8", 73.9),
    ("I-BERT (QQP)", "GLUE", 91.2, "4/8", "4/8", 90.9),
]


def tbl3_accuracy(quick: bool = False,
                  seed: int = 7) -> ExperimentResult:
    """DBB fine-tuning accuracy — proxy-model reproduction of Table 3.

    Runs the actual prune-then-finetune pipeline on the synthetic proxy
    (ImageNet training is unavailable offline; see :mod:`repro.train`) for
    the paper's sparsity variants, and lists the paper's published rows
    for reference. ``quick`` shrinks the epoch counts for CI use.
    """
    from repro.train import MLP, dbb_finetune, synthetic_classification

    epochs = 4 if quick else 14
    variants = [
        ("A-DBB 3/8", DBBSpec(8, 3), None),
        ("W-DBB 4/8", None, DBBSpec(8, 4)),
        ("A/W-DBB 3/8+4/8", DBBSpec(8, 3), DBBSpec(8, 4)),
        ("W-DBB 2/8 (aggressive)", None, DBBSpec(8, 2)),
    ]
    rows = []
    for name, a_spec, w_spec in variants:
        rng = np.random.default_rng(seed)
        data = synthetic_classification(rng=rng)
        model = MLP(64, [64, 64], 12,
                    dap_spec=a_spec,
                    dap_nnz=a_spec.max_nnz if a_spec else None,
                    rng=rng)
        report = dbb_finetune(model, data, w_spec=w_spec, rng=rng,
                              baseline_epochs=epochs,
                              finetune_epochs=epochs)
        rows.append([
            name,
            round(report.baseline_acc, 1),
            round(report.pruned_acc, 1),
            round(report.finetuned_acc, 1),
            round(report.final_loss, 1),
        ])
    notes = ["proxy MLP on synthetic data; the reproduced claim is the "
             "recovery dynamic (prune -> drop -> finetune -> ~baseline)"]
    notes.append("paper-published Table 3 (for reference):")
    for model_name, dataset, base, a, w, acc in PAPER_TABLE3:
        notes.append(
            f"  {model_name:<14s} {dataset:<9s} base {base:.1f}  "
            f"A {a:<7s} W {w:<4s} -> {acc:.1f}"
        )
    return ExperimentResult(
        artifact="Table 3",
        title="DBB pruning + fine-tuning accuracy (proxy reproduction)",
        headers=["variant", "baseline %", "after prune %",
                 "after finetune %", "final loss pts"],
        rows=rows,
        notes=notes,
    )


# --------------------------------------------------------------------- #
# Figure 11
# --------------------------------------------------------------------- #

def _functional_runs(accels: Dict[str, AcceleratorModel], specs,
                     seed: int, result_cache
                     ) -> Dict[Tuple[str, str], "AccelRunResult"]:
    """One runner batch over every (variant, model) pair.

    Flattening the whole experiment into a single task batch is what
    lets each layer's operands be synthesized once for every variant
    and the result cache deduplicate shared layers; results come back
    keyed by ``(variant, model-name)`` and are bit-equal to per-model
    runs at the same seed.
    """
    from repro.eval.runner import functional_model_runs

    pairs = [(name, spec) for spec in specs for name in accels]
    runs = functional_model_runs(
        [(accels[name], spec) for name, spec in pairs],
        conv_only=True, seed=seed, result_cache=result_cache)
    return {(name, spec.name): run
            for (name, spec), run in zip(pairs, runs)}


@traced("fig11", "experiment")
def fig11_full_models(functional: bool = False, seed: int = 0,
                      dram_gbps: Optional[float] = None,
                      dram_pj_per_byte: Optional[float] = None,
                      result_cache=None,
                      ) -> ExperimentResult:
    """Full-model energy reduction and speedup vs SA-ZVCG (16 nm).

    ``functional=True`` switches from the analytic fast path to honest
    functional simulation: every conv layer of all four networks runs as
    a concrete GEMM on the cycle simulator (see the module
    docstring's fidelity-tier notes). ``dram_gbps`` replaces the
    default DRAM channel (32 B/cycle with the paper's conv staging
    assumption) with an explicit bandwidth and the honest roofline
    wall on every layer — the memory-sensitivity axis;
    ``dram_pj_per_byte`` re-prices the reported off-chip component.
    ``result_cache`` backs the functional tier's memoized runner
    (:mod:`repro.eval.runner`).
    """
    variants = {k: v for k, v in _sa_variants(
                    dram_gbps=dram_gbps,
                    costs=_costs(dram_pj_per_byte)).items()
                if k in SYSTOLIC_VARIANTS}
    specs = [get_spec(name) for name in FULL_MODELS]
    functional_runs = (
        _functional_runs(variants, specs, seed, result_cache)
        if functional else {})

    if not functional:
        # One SMT batch over all four networks instead of one per model.
        densities = [(layer.w_density, layer.a_density)
                     for spec in specs for layer in spec.conv_layers]
        for accel in variants.values():
            accel.prefetch(densities)

    def _run(name, accel, spec):
        if functional:
            return functional_runs[name, spec.name]
        return accel.run_model(spec, conv_only=True)

    rows = []
    aw_energy, aw_speed = [], []
    for spec in specs:
        model_name = spec.name
        runs = {k: _run(k, a, spec) for k, a in variants.items()}
        base = runs["SA-ZVCG"]
        row = [model_name]
        for key in ("SMT-T2Q2", "S2TA-W", "S2TA-AW"):
            row.append(round(base.energy_uj / runs[key].energy_uj, 2))
            row.append(round(base.total_cycles / runs[key].total_cycles, 2))
        rows.append(row)
        aw_energy.append(base.energy_uj / runs["S2TA-AW"].energy_uj)
        aw_speed.append(base.total_cycles / runs["S2TA-AW"].total_cycles)
    rows.append([
        "average", "-", "-", "-", "-",
        round(float(np.mean(aw_energy)), 2),
        round(float(np.mean(aw_speed)), 2),
    ])
    notes = ["paper: S2TA-AW averages 2.08x energy reduction and "
             "2.11x speedup vs SA-ZVCG (ranges 1.76-2.79x / 1.67-2.58x)"]
    if dram_gbps is not None:
        notes.append(
            f"DRAM channel {dram_gbps:g} GB/s with the roofline wall "
            "enforced on every layer (default: 32 B/cycle, conv operands "
            "staged ahead of compute)")
    if functional:
        notes.append(
            "functional tier: measured events from concrete GEMMs "
            "at full layer sizes")
    return ExperimentResult(
        artifact="Figure 11",
        title="Full-model energy reduction / speedup vs SA-ZVCG (16 nm, "
              "conv layers)"
              + (" — functional simulation" if functional else ""),
        headers=["model", "SMT energy x", "SMT speedup",
                 "S2TA-W energy x", "S2TA-W speedup",
                 "S2TA-AW energy x", "S2TA-AW speedup"],
        rows=rows,
        notes=notes,
    )


# --------------------------------------------------------------------- #
# Figure 12
# --------------------------------------------------------------------- #

@traced("fig12", "experiment")
def fig12_alexnet_per_layer(functional: bool = False, seed: int = 0,
                            dram_gbps: Optional[float] = None,
                            dram_pj_per_byte: Optional[float] = None,
                            # The frozen perfbench/workpass.py still
                            # passes jobs="auto"; drop both together.
                            jobs=None,
                            result_cache=None,
                            ) -> ExperimentResult:
    """AlexNet per-layer energy across five accelerators (65/45 nm).

    ``functional=True`` runs *every* row on concrete operands —
    the systolic family on the cycle simulator, SparTen on the bitmask
    inner-join engine, Eyeriss v2 on the CSC row-stationary mesh: no
    analytic fallback remains in the comparison. ``dram_gbps`` swaps
    in an explicit DRAM channel (each accelerator converts against its
    own clock) with the honest roofline wall;
    ``dram_pj_per_byte`` re-prices the reported off-chip component
    (die-only totals are unaffected by construction).
    ``result_cache`` backs the functional tier's memoized runner.
    ``jobs`` is ignored (the runner is serial).
    """
    spec = get_spec("alexnet")
    kwargs = {"dram_gbps": dram_gbps, "costs": _costs(dram_pj_per_byte)}
    accels = {
        "Eyeriss v2 (65nm)": EyerissV2(**kwargs),
        "SparTen (45nm)": SparTen(**kwargs),
        "SA-ZVCG (65nm)": ZvcgSA(tech="65nm", **kwargs),
        "S2TA-W (65nm)": S2TAW(tech="65nm", **kwargs),
        "S2TA-AW (65nm)": S2TAAW(tech="65nm", **kwargs),
    }
    if functional:
        functional_runs = _functional_runs(accels, [spec], seed,
                                           result_cache)
        runs = {name: functional_runs[name, spec.name] for name in accels}
    else:
        runs = {name: accel.run_model(spec, conv_only=True)
                for name, accel in accels.items()}
    layer_names = [l.name for l in spec.conv_layers]
    rows = []
    for name, run in runs.items():
        row = [name]
        row.extend(round(r.energy_uj, 1) for r in run.layer_results)
        row.append(round(run.energy_uj, 1))
        rows.append(row)
    aw = runs["S2TA-AW (65nm)"].energy_uj
    notes = []
    if dram_gbps is not None:
        notes.append(f"DRAM channel {dram_gbps:g} GB/s, roofline wall "
                     "enforced on every layer")
    notes += [
        f"SparTen/S2TA-AW = "
        f"{runs['SparTen (45nm)'].energy_uj / aw:.2f}x (paper ~2.2x)",
        f"Eyeriss v2/S2TA-AW = "
        f"{runs['Eyeriss v2 (65nm)'].energy_uj / aw:.2f}x (paper ~3.1x)",
        "SparTen wins only on the high-sparsity layers (conv3-5)",
    ]
    if functional:
        notes.append(
            "functional tier for every row: systolic family on the "
            "cycle simulator, SparTen on the bitmask inner-join engine, "
            "Eyeriss v2 on the CSC row-stationary mesh")
    return ExperimentResult(
        artifact="Figure 12",
        title="AlexNet per-layer energy per inference (uJ)"
              + (" — functional simulation" if functional else ""),
        headers=["accelerator"] + layer_names + ["total"],
        rows=rows,
        notes=notes,
    )


# --------------------------------------------------------------------- #
# Functional-vs-analytic cross-validation
# --------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class XvalContract:
    """Per-accelerator agreement tolerances (functional = reference).

    ``fired``/``energy`` are relative bounds enforced on every conv
    layer; ``cycles`` is the relative compute-cycle bound (``0.0`` =
    bit-equal, ``None`` = reported but not enforced); ``exact`` asserts
    bit-equal SRAM bytes and per-operand-class DRAM bytes.
    """

    fired: float = 0.01
    energy: float = 0.06
    cycles: Optional[float] = 0.0
    exact: bool = True


#: The seven-model agreement contract of the cross-validation artifact
#: (plus the dense SA reference row). Systolic modes are cycle-bit-equal
#: by the shared pipelined-tile skew convention; SMT keeps a statistical
#: bound from its queueing post-pass; SparTen/Eyeriss v2 differ only by
#: the measured schedule imbalance on top of the shared pipeline
#: efficiency; SCNN's cycles are reported unenforced — its 4x4
#: multiplier quantization measures the published small-feature-map
#: fragmentation the flat analytic utilization cannot represent.
XVAL_CONTRACT: Dict[str, XvalContract] = {
    "SA": XvalContract(),
    "SA-ZVCG": XvalContract(),
    "SMT-T2Q2": XvalContract(cycles=0.10),
    "S2TA-W": XvalContract(),
    "S2TA-AW": XvalContract(),
    "SparTen": XvalContract(cycles=0.05),
    "Eyeriss-v2": XvalContract(cycles=0.10),
    "SCNN": XvalContract(cycles=None),
}


@traced("xval", "experiment")
def xval_functional_vs_analytic(
    model: str = "alexnet",
    tech: str = "16nm",
    seed: int = 0,
    # The frozen perfbench/workpass.py still passes jobs="auto"; drop
    # both together.
    jobs=None,
    result_cache=None,
) -> ExperimentResult:
    """Per-layer analytic-vs-functional deltas for one benchmark network.

    For every conv layer and every accelerator in the paper's comparison
    — the systolic family *and* the fixed-dataflow baselines (SparTen,
    Eyeriss v2, SCNN) — runs both fidelity tiers and reports the
    relative deltas in cycles, fired MACs and energy (functional as the
    denominator) plus whether the structurally exact counters (SRAM
    bytes, MAC slots, per-class DRAM bytes from the memory-hierarchy
    model) match. This is the validation artifact behind the functional
    migration: the analytic models are the *fast path*, and this table
    is the evidence they track the measured ground truth.

    Every row is checked against :data:`XVAL_CONTRACT`; violations land
    in ``result.failures`` and make ``repro experiment xval`` exit
    non-zero. ``result_cache`` backs the functional tier's memoized runner (the
    analytic side is closed-form and never cached). ``jobs`` is
    ignored (the runner is serial).
    """
    from repro.eval.runner import functional_model_runs

    spec = get_spec(model)
    variants: Dict[str, AcceleratorModel] = {
        "SA": DenseSA(tech=tech),
        "SA-ZVCG": ZvcgSA(tech=tech),
        "SMT-T2Q2": SmtSA(tech=tech),
        "S2TA-W": S2TAW(tech=tech),
        "S2TA-AW": S2TAAW(tech=tech),
        # The fixed-dataflow baselines run at their published nodes.
        "SparTen": SparTen(),
        "Eyeriss-v2": EyerissV2(),
        "SCNN": SCNN(),
    }

    def _rel(ana: float, fun: float) -> float:
        if fun == 0:
            return 0.0 if ana == 0 else float("inf")
        return (ana - fun) / fun

    # Functional tier: one memoized runner batch over every
    # (accelerator, layer) pair, accelerator-major.
    runs = functional_model_runs(
        [(accel, spec) for accel in variants.values()], conv_only=True,
        seed=seed, result_cache=result_cache)
    # Analytic tier: its own SA-SMT, whose memo holds speedups at spec
    # densities only (the functional batch memoized the operands'
    # measured densities, which share some grid keys), prefetched in
    # one batch.
    analytic = dict(variants, **{"SMT-T2Q2": SmtSA(tech=tech)})
    densities = [(layer.w_density, layer.a_density)
                 for layer in spec.conv_layers]
    for accel in analytic.values():
        accel.prefetch(densities)

    rows = []
    failures = []
    worst = {"cycles": 0.0, "fired": 0.0, "energy": 0.0}
    for (name, accel), run in zip(analytic.items(), runs):
        contract = XVAL_CONTRACT[name]
        for layer, fun in zip(spec.conv_layers, run.layer_results):
            ana = accel.run_layer(layer)
            d_cycles = _rel(ana.compute_cycles, fun.compute_cycles)
            d_fired = _rel(ana.events.mac_ops, fun.events.mac_ops)
            d_energy = _rel(ana.energy_pj, fun.energy_pj)
            sram_exact = (
                ana.events.sram_a_read_bytes == fun.events.sram_a_read_bytes
                and ana.events.sram_w_read_bytes == fun.events.sram_w_read_bytes
                and ana.events.sram_a_write_bytes == fun.events.sram_a_write_bytes
            )
            slots_exact = (ana.events.total_mac_slots
                           == fun.events.total_mac_slots)
            dram_exact = (ana.memory.by_class() == fun.memory.by_class())
            cycles_exact = ana.compute_cycles == fun.compute_cycles
            rows.append([
                name, layer.name,
                round(d_cycles * 100, 2),
                round(d_fired * 100, 2),
                round(d_energy * 100, 2),
                "yes" if sram_exact else "NO",
                "yes" if slots_exact else "no",
                "yes" if dram_exact else "NO",
                "yes" if cycles_exact else "no",
            ])
            worst["cycles"] = max(worst["cycles"], abs(d_cycles))
            worst["fired"] = max(worst["fired"], abs(d_fired))
            worst["energy"] = max(worst["energy"], abs(d_energy))
            # --- contract enforcement ---
            tag = f"{name}/{layer.name}"
            if abs(d_fired) > contract.fired:
                failures.append(
                    f"{tag}: fired-MAC delta {d_fired * 100:.2f}% exceeds "
                    f"{contract.fired * 100:g}%")
            if abs(d_energy) > contract.energy:
                failures.append(
                    f"{tag}: energy delta {d_energy * 100:.2f}% exceeds "
                    f"{contract.energy * 100:g}%")
            if contract.cycles is not None and (
                    abs(d_cycles) > contract.cycles):
                failures.append(
                    f"{tag}: cycle delta {d_cycles * 100:.2f}% exceeds "
                    f"{contract.cycles * 100:g}%")
            if contract.exact and not (sram_exact and dram_exact):
                failures.append(
                    f"{tag}: SRAM/DRAM byte counters not bit-equal "
                    "between tiers")
    return ExperimentResult(
        artifact="Cross-validation",
        title=f"Analytic vs functional per-layer deltas ({model}, {tech})",
        headers=["accelerator", "layer", "cycles %", "fired MACs %",
                 "energy %", "SRAM exact", "slots exact", "DRAM exact",
                 "cycles exact"],
        rows=rows,
        notes=[
            f"worst |delta|: cycles {worst['cycles'] * 100:.2f}%, "
            f"fired MACs {worst['fired'] * 100:.2f}%, "
            f"energy {worst['energy'] * 100:.2f}%",
            "cycle models share the pipelined-tile skew convention and "
            "are bit-equal for the systolic modes; SMT's slots derive "
            "from its queueing-simulated cycles and keep a small "
            "statistical delta; SparTen/Eyeriss v2 differ by measured "
            "schedule imbalance; SCNN cycles are unenforced (multiplier "
            "fragmentation on small feature maps is emergent in the "
            "functional tier)",
            "DRAM exact = per-operand-class off-chip bytes (weights, "
            "activations, partial sums, DBB metadata, outputs) agree "
            "bit-for-bit between tiers",
            "contract: " + "; ".join(
                f"{name} fired<{c.fired * 100:g}% energy<{c.energy * 100:g}%"
                + (" cycles=bit-equal" if c.cycles == 0.0
                   else (f" cycles<{c.cycles * 100:g}%"
                         if c.cycles is not None else " cycles=reported"))
                for name, c in XVAL_CONTRACT.items()),
        ],
        failures=failures,
    )


# --------------------------------------------------------------------- #
# Table 4
# --------------------------------------------------------------------- #

def _peak_stats(accel: AcceleratorModel, w_density: float = 0.5,
                a_density: float = 0.5) -> Dict[str, float]:
    result = accel.microbench_layer(w_density, a_density)
    ops = 2.0 * result.layer.macs
    runtime_s = result.cycles / (accel.clock_ghz * 1e9)
    energy_j = result.energy_pj * 1e-12
    return {
        "tops": ops / runtime_s / 1e12,
        "tops_per_w": ops / energy_j / 1e12,
    }


def tbl4_comparison(tech: str = "16nm") -> ExperimentResult:
    """The big cross-accelerator comparison (Table 4) at one node."""
    if tech == "16nm":
        accels: Dict[str, AcceleratorModel] = {
            "SA-ZVCG": ZvcgSA(),
            "SA-SMT": SmtSA(),
            "S2TA-W": S2TAW(),
            "S2TA-AW": S2TAAW(),
        }
        paper = {
            # name: (area, peak_tops, peak_topsw, alexnet kinf/s, kinf/J,
            #        mobilenet kinf/s, kinf/J) — conv-only (footnote 5)
            "SA-ZVCG": (3.7, 4.0, 10.5, 3.0, 7.5, 3.6, 8.4),
            "SA-SMT": (4.2, 8.0, 8.01, 4.0, 6.73, 5.4, 8.0),
            "S2TA-W": (3.4, 8.0, 12.4, 5.0, 8.7, 7.3, 9.9),
            "S2TA-AW": (3.8, 8.0, 14.3, 6.3, 13.1, 9.7, 14.9),
        }
    elif tech == "65nm":
        accels = {
            "Eyeriss v2": EyerissV2(),
            "SA-ZVCG": ZvcgSA(tech="65nm"),
            "S2TA-W": S2TAW(tech="65nm"),
            "S2TA-AW": S2TAAW(tech="65nm"),
        }
        paper = {
            "Eyeriss v2": (3.38, 0.152, None, 0.34, 0.74, 0.13, 0.22),
            "SA-ZVCG": (21.0, 2.0, 0.78, 1.5, 0.67, 1.82, 0.68),
            "S2TA-W": (None, 4.0, 0.87, 2.5, 0.66, 3.64, 0.76),
            "S2TA-AW": (24.0, 4.0, 1.1, 3.2, 1.02, 4.85, 1.04),
        }
    else:
        raise ValueError(f"tech must be 16nm or 65nm, got {tech!r}")

    alexnet = get_spec("alexnet")
    mobilenet = get_spec("mobilenet_v1")
    rows = []
    for name, accel in accels.items():
        peak = _peak_stats(accel)
        run_a = accel.run_model(alexnet, conv_only=True)
        run_m = accel.run_model(mobilenet, conv_only=True)
        p = paper[name]
        rows.append([
            name,
            round(accel.area_mm2(), 2), p[0] if p[0] is not None else "-",
            round(peak["tops"], 2), p[1],
            round(peak["tops_per_w"], 2), p[2] if p[2] is not None else "-",
            round(run_a.inferences_per_second / 1e3, 2), p[3],
            round(run_a.inferences_per_joule / 1e3, 2), p[4],
            round(run_m.inferences_per_second / 1e3, 2), p[5],
            round(run_m.inferences_per_joule / 1e3, 2), p[6],
        ])
    return ExperimentResult(
        artifact=f"Table 4 ({tech})",
        title="Cross-accelerator comparison (conv-only full models; "
              "'paper' columns are Table 4's footnote-5 values)",
        headers=["accelerator",
                 "area", "p.area",
                 "TOPS@50%", "p.TOPS",
                 "TOPS/W", "p.TOPS/W",
                 "AlexNet kI/s", "p.", "AlexNet kI/J", "p.",
                 "MobNet kI/s", "p.", "MobNet kI/J", "p."],
        rows=rows,
        notes=["peak stats at 50% weight/activation sparsity"],
    )


# --------------------------------------------------------------------- #
# Table 5
# --------------------------------------------------------------------- #

def tbl5_summary() -> ExperimentResult:
    """Qualitative design summary (Table 5)."""
    rows = [
        ["SA", "dense", "dense", "none", "no", "no"],
        ["SA-ZVCG", "dense", "dense", "none", "yes", "no"],
        ["SA-SMT", "random", "random", "gather (FIFOs)", "yes", "no"],
        ["SCNN", "random", "random", "scatter (accum buffer)", "yes", "no"],
        ["SparTen", "random", "random", "gather (prefix sums)", "yes", "no"],
        ["Kang", "2/8 DBB", "dense", "none", "yes", "no"],
        ["STA", "4/8 DBB", "dense", "none", "yes", "no"],
        ["A100", "2/4 DBB", "dense", "none", "-", "no"],
        ["S2TA-W", "4/8 DBB", "dense", "none", "yes", "no"],
        ["S2TA-AW", "4/8 DBB", "(1-5)/8 DBB", "none", "yes", "yes"],
    ]
    return ExperimentResult(
        artifact="Table 5",
        title="Design summary: sparsity support and overhead structures",
        headers=["architecture", "weight sparsity", "activation sparsity",
                 "hardware overhead", "ZVCG", "variable DBB (time-unrolled)"],
        rows=rows,
        notes=["structured sparsity gives speedup without gather/scatter "
               "overhead structures; only S2TA-AW supports variable "
               "activation DBB via time-unrolling"],
    )


# --------------------------------------------------------------------- #
# Section 7: design-space exploration
# --------------------------------------------------------------------- #

def sec7_design_space() -> ExperimentResult:
    """The AxBxC_MxN sweep and its area/power frontier (Sec. 7): the
    ``SEC7_AXES`` slice of the DSE keyspace, its eight lowest-energy
    points listed."""
    from repro.design.dse import (
        SEC7_AXES,
        SEC7_OBJECTIVES,
        DSESpace,
        evaluate_points,
        pareto_frontier,
        select_lowest_power,
    )

    evaluations = list(evaluate_points(DSESpace(SEC7_AXES).points).values())
    frontier = {e.uid for e in pareto_frontier(evaluations, SEC7_OBJECTIVES)}
    best = select_lowest_power(evaluations)
    ranked = sorted(evaluations, key=lambda e: e.energy_uj)[:8]
    rows = [
        [e.notation,
         round(e.power_mw, 1),
         round(e.area_mm2, 2),
         round(e.energy_uj, 1),
         "yes" if e.uid in frontier else "no",
         "<-- selected" if e is best else ""]
        for e in ranked
    ]
    return ExperimentResult(
        artifact="Section 7",
        title="Design-space sweep at 4 TOPS peak (time-unrolled TPEs, "
              "typical conv at 50%/50%)",
        headers=["design", "power mW", "area mm2", "energy uJ",
                 "on frontier", ""],
        rows=rows,
        notes=[f"{len(evaluations)} feasible points; the paper selects "
               f"8x4x4_8x8 — the same 8x4x4 TPE wins here (grid "
               f"{best.notation.partition('_')[2]}, within a few "
               f"percent of the 8x8 grid)"],
    )
