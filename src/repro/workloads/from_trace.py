"""Build accelerator workloads from executed-model traces.

The bridge between the functional substrate and the accelerator models: run any
:class:`repro.nn.Sequential` on real inputs (optionally with DAP), and
convert the per-layer trace — measured GEMM shapes and densities — into
:class:`~repro.models.specs.LayerSpec` workloads the accelerator models
price. This is how a downstream user evaluates *their own* network on
S2TA without hand-writing a spec table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.dbb import DBBSpec
from repro.models.specs import BLOCK_SIZE, LayerKind, LayerSpec, ModelSpec
from repro.nn.layers import DepthwiseConv2d, Linear
from repro.nn.model import RunResult, Sequential

__all__ = ["spec_from_trace", "run_and_spec"]


def _kind_of(trace_kind: str) -> LayerKind:
    if trace_kind == "DepthwiseConv2d":
        return LayerKind.DWCONV
    if trace_kind == "Linear":
        return LayerKind.FC
    return LayerKind.CONV


def spec_from_trace(
    result: RunResult,
    name: str = "traced_model",
    w_nnz: int = 4,
    skip_weight_pruning: Optional[List[str]] = None,
) -> ModelSpec:
    """Convert one forward pass's trace into an analytic model spec.

    Activation densities and DAP bounds come from the measured trace
    (``dap_nnz`` when the pass ran with DAP, else the dense density);
    ``w_nnz`` declares the W-DBB bound the weights were (or will be)
    pruned to, with ``skip_weight_pruning`` naming excluded layers
    (default: the first GEMM layer, per the paper).
    """
    gemm_traces = [t for t in result.traces if t.gemm_shape is not None]
    if not gemm_traces:
        raise ValueError("trace contains no GEMM layers")
    if skip_weight_pruning is None:
        skip_weight_pruning = [gemm_traces[0].name]
    skip = set(skip_weight_pruning)
    layers = []
    for trace in gemm_traces:
        m, k, n = trace.gemm_shape
        kind = _kind_of(trace.kind)
        if trace.dap_nnz is not None:
            a_nnz = trace.dap_nnz
        else:
            # no DAP: dense bypass, density as measured
            a_nnz = BLOCK_SIZE
        pruned = trace.name not in skip and kind is not LayerKind.DWCONV
        layers.append(LayerSpec(
            trace.name,
            kind,
            m=m, k=k, n=n,
            w_nnz=w_nnz if pruned else BLOCK_SIZE,
            a_nnz=a_nnz,
            weight_density=None if pruned else 0.95,
            act_density=max(1e-3, trace.input_density),
        ))
    return ModelSpec(name=name, dataset="traced", layers=layers)


def run_and_spec(
    model: Sequential,
    x: np.ndarray,
    dap_spec: Optional[DBBSpec] = None,
    dap_nnz: Optional[Dict[str, int]] = None,
    w_nnz: int = 4,
) -> ModelSpec:
    """Run a model and return the workload spec of that execution."""
    result = model.forward(x, dap_spec=dap_spec, dap_nnz=dap_nnz)
    return spec_from_trace(result, name=model.name, w_nnz=w_nnz)
