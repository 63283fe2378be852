"""Experiment runners reproducing every table and figure.

One function per paper artifact (``repro experiment <id>`` runs each);
each returns an :class:`~repro.eval.tables.ExperimentResult` whose
``render()`` prints the same rows/series the paper reports, side by side
with the paper's published values where applicable.
"""

from repro._lazy import lazy_exports
from repro.eval.experiments import (
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
    xval_functional_vs_analytic,
)
from repro.eval.resultcache import ResultCache, default_result_cache
from repro.eval.runner import (
    LayerSimTask,
    functional_model_runs,
    simulate_layer_tasks,
)
from repro.eval.tables import ExperimentResult, format_table

__all__ = [
    "ExperimentResult",
    "format_table",
    "ResultCache",
    "default_result_cache",
    "LayerSimTask",
    "simulate_layer_tasks",
    "functional_model_runs",
    "roofline_analysis",
    "dram_bw_sensitivity",
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
    "ablation_unroll_axis",
    "ablation_block_size",
    "ablation_dap_stages",
]

# Not on an artifact run's path: each module loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "roofline_analysis": "roofline",
    "dram_bw_sensitivity": "roofline",
    "ablation_unroll_axis": "ablations",
    "ablation_block_size": "ablations",
    "ablation_dap_stages": "ablations",
})
