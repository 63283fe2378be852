"""Kernel throughput tracking: MACs/s of the DBB hot paths.

Not a paper artifact — this benchmark pins the *simulator's own* speed so
the perf trajectory (``BENCH_*.json`` via pytest-benchmark ``extra_info``)
tracks the vectorized array backend across PRs. Covered hot paths:

- ``compress`` (DBB encode of a dense operand),
- ``dbb_gemm`` (S2TA-W functional kernel),
- ``joint_dbb_gemm`` (S2TA-AW functional kernel),
- ``SystolicArray.run_gemm`` in all four modes, output read (counting
  plus the GEMM the result computes on first read).

Sizes: small (toy), medium (the fig. 9 microbench layer), large
(AlexNet-conv2 scale — the layer that used to extrapolate to hours on the
object-per-block backend).
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
from repro.core.dbb import DBBSpec, compress
from repro.core.gemm import (
    clear_compress_cache,
    compress_operands,
    dbb_gemm,
    gemm_mac_count,
    joint_dbb_gemm,
)
from repro.models.specs import LayerKind, LayerSpec
from repro.workloads.from_spec import spec_int8_operands

SPEC = DBBSpec(8, 4)

SIZES = {
    "small": (64, 128, 64),
    "medium": (1024, 1152, 256),   # fig. 9 microbench layer
    "large": (3025, 1200, 256),    # AlexNet conv2 after im2col
}


@lru_cache(maxsize=None)
def _operands(size):
    """INT8 operands of one size, built once: 4/8 DBB weights and
    activations with no DBB cap at density 9/16. The census spreads
    non-zeros evenly, so half the activation blocks hold 5 and DAP
    prunes them to the 4/8 bound (at density 1/2 every block would
    hold 4 and DAP would have nothing to prune)."""
    m, k, n = SIZES[size]
    layer = LayerSpec(f"bench_{size}", LayerKind.CONV, m=m, k=k, n=n,
                      w_nnz=4, a_nnz=8, weight_density=0.5,
                      act_density=0.5625)
    return spec_int8_operands(layer)


def _record_macs_per_s(benchmark, size):
    """Record simulated MACs per wall-clock second as the gate's
    throughput."""
    m, k, n = SIZES[size]
    macs = gemm_mac_count(m, k, n)
    benchmark.extra_info["size"] = f"{m}x{k}x{n}"
    benchmark.extra_info["dense_macs"] = macs
    if benchmark.stats is not None:  # absent under --benchmark-disable
        mean = benchmark.stats.stats.mean
        benchmark.extra_info["throughput"] = macs / mean if mean else 0.0
        benchmark.extra_info["unit"] = "macs/s"


@pytest.mark.parametrize("size", ["small", "medium", "large"])
def test_bench_compress(benchmark, size):
    _a, w = _operands(size)
    wt = np.ascontiguousarray(w.T)
    benchmark(compress, wt, SPEC)
    _record_macs_per_s(benchmark, size)


@pytest.mark.parametrize("size", ["small", "medium", "large"])
def test_bench_dbb_gemm(benchmark, size):
    a, w = _operands(size)
    w_dbb = compress(w.T, SPEC)
    result = benchmark(dbb_gemm, a, w_dbb)
    _record_macs_per_s(benchmark, size)
    assert result.shape == (a.shape[0], w.shape[1])


@pytest.mark.parametrize("size", ["small", "medium", "large"])
def test_bench_joint_dbb_gemm(benchmark, size):
    a, w = _operands(size)
    from repro.core.dap import dap_prune

    a_ok = dap_prune(a, SPEC).pruned
    a_dbb, w_dbb = compress_operands(a_ok, w, SPEC, SPEC)
    result = benchmark(joint_dbb_gemm, a_dbb, w_dbb)
    _record_macs_per_s(benchmark, size)
    assert result.shape == (a.shape[0], w.shape[1])


_MODE_CONFIGS = {
    "dense": SystolicConfig(rows=32, cols=64, mode=Mode.DENSE),
    "zvcg": SystolicConfig(rows=32, cols=64, mode=Mode.ZVCG),
    "wdbb": SystolicConfig(rows=4, cols=8, mode=Mode.WDBB,
                           w_spec=SPEC, tpe_a=4, tpe_c=4),
    "awdbb": SystolicConfig(rows=8, cols=8, mode=Mode.AWDBB,
                            w_spec=SPEC, a_spec=SPEC, tpe_a=8, tpe_c=4),
}


@pytest.mark.parametrize("mode", list(_MODE_CONFIGS))
@pytest.mark.parametrize("size", ["small", "medium"])
def test_bench_run_gemm(benchmark, size, mode):
    a, w = _operands(size)
    sim = SystolicArray(_MODE_CONFIGS[mode])

    def run():
        result = sim.run_gemm(a, w)
        result.output  # computed on first read; MACs/s must include it
        return result

    result = benchmark(run)
    _record_macs_per_s(benchmark, size)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["cycles"] = result.cycles
    assert result.cycles > 0
    assert (result.pruned_a is not None) == (mode == "awdbb")


def test_weight_compression_memo_shared_across_modes():
    """The variant sweep compresses each workload's weights exactly once."""
    from repro.core import gemm as gemm_mod

    clear_compress_cache()
    a, w = _operands("small")
    calls = {"n": 0}
    original = gemm_mod.compress

    def counting_compress(matrix, spec):
        calls["n"] += 1
        return original(matrix, spec)

    gemm_mod.compress = counting_compress
    try:
        # Only reading a WDBB output compresses W.
        SystolicArray(_MODE_CONFIGS["wdbb"]).run_gemm(a, w).output  # cold
        SystolicArray(_MODE_CONFIGS["wdbb"]).run_gemm(a, w).output  # memo hit
        for a_nnz in (1, 2, 4):  # AWDBB never compresses (closed-form events)
            SystolicArray(_MODE_CONFIGS["awdbb"]).run_gemm(
                a, w, a_nnz=a_nnz).output
    finally:
        gemm_mod.compress = original
        clear_compress_cache()
    # One cold compression of W.T for the whole sweep.
    assert calls["n"] == 1
