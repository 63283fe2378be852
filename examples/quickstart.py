"""Quickstart: the DBB format, pruning, DAP and sparse GEMM in 5 minutes.

Covers the paper's core pipeline end to end on small tensors:

1. compress a tensor into Density Bound Block (DBB) format (Fig. 5);
2. prune weights to a 4/8 W-DBB bound (Sec. 4);
3. prune activations dynamically with DAP (Sec. 5.1);
4. run the joint-DBB GEMM and check it is bit-exact with dense numpy;
5. run the same GEMM on the cycle-level S2TA-AW systolic array, which
   applies DAP itself, and check it is bit-exact too;
6. compare all accelerator variants on the paper's typical conv layer.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.accel import S2TAAW, S2TAW, DenseSA, SmtSA, ZvcgSA
from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
from repro.core.dbb import DBBSpec, compress, decompress
from repro.core.dap import dap_prune
from repro.core.gemm import compress_operands, dense_gemm, joint_dbb_gemm
from repro.core.pruning import prune_weights_dbb
from repro.core.sparsity import density, random_unstructured
from repro.workloads.typical import typical_conv_layer


def main() -> None:
    rng = np.random.default_rng(42)

    # 1. DBB compression round-trip ---------------------------------- #
    spec = DBBSpec(block_size=8, max_nnz=4)  # the paper's 4/8
    print(f"DBB spec: {spec.ratio} (bound {spec.density_bound:.0%}, "
          f"{spec.compression_ratio():.2f}x compression for INT8)")

    x = np.array([[0, 5, 0, -3, 0, 0, 7, 1]], dtype=np.int8)
    tensor = compress(x, spec)
    block = tensor.row_blocks(0)[0]
    values = [int(v) for v in block.values]
    print(f"block values={values} mask={block.mask:#04x} "
          f"positions={block.positions}")
    assert np.array_equal(decompress(tensor, dtype=np.int8), x)

    # 2. weight pruning ---------------------------------------------- #
    w = random_unstructured((64, 16), 0.9, rng=rng).astype(np.int64)
    w_pruned = prune_weights_dbb(w.T, spec).T
    print(f"\nweights: density {density(w):.2f} -> {density(w_pruned):.2f} "
          f"after 4/8 magnitude pruning")

    # 3. dynamic activation pruning ---------------------------------- #
    a = random_unstructured((8, 64), 0.8, rng=rng).astype(np.int64)
    dap = dap_prune(a, spec, nnz=3)
    print(f"activations: density {density(a):.2f} -> "
          f"{density(dap.pruned):.2f} after 3/8 DAP "
          f"(pruned {dap.pruned_fraction:.0%} of non-zeros)")

    # 4. joint DBB GEMM, bit-exact ------------------------------------ #
    a_dbb, w_dbb = compress_operands(dap.pruned, w_pruned,
                                     spec.with_nnz(3), spec)
    out_sparse = joint_dbb_gemm(a_dbb, w_dbb)
    out_dense = dense_gemm(dap.pruned, w_pruned)
    assert np.array_equal(out_sparse, out_dense)
    print("joint DBB GEMM matches dense numpy bit-exactly")

    # 5. cycle-level S2TA-AW array ------------------------------------ #
    sim = SystolicArray(SystolicConfig(
        rows=2, cols=2, mode=Mode.AWDBB,
        w_spec=spec, a_spec=spec, tpe_a=4, tpe_c=2,
    ))
    run = sim.run_gemm(a, w_pruned, a_nnz=3)
    assert np.array_equal(run.output, out_dense)
    print(f"S2TA-AW array (2x2 TPEs of 4x2, 3/8 DAP in hardware): "
          f"{run.cycles:,} cycles, MAC utilization "
          f"{run.events.mac_utilization:.0%}, output bit-exact")

    # 6. accelerator comparison on the typical conv ------------------- #
    layer = typical_conv_layer(w_density=0.5, a_density=0.375)
    print(f"\ntypical conv layer: M={layer.m} K={layer.k} N={layer.n}, "
          f"50% W-DBB / 62.5% A-DBB sparsity")
    print(f"{'accelerator':<12} {'cycles':>10} {'energy uJ':>10} "
          f"{'vs ZVCG':>8}")
    baseline = ZvcgSA().run_layer(layer)
    for accel in (DenseSA(), ZvcgSA(), SmtSA(), S2TAW(), S2TAAW()):
        result = accel.run_layer(layer)
        ratio = baseline.energy_pj / result.energy_pj
        print(f"{accel.name:<12} {result.cycles:>10,} "
              f"{result.energy_uj:>10.1f} {ratio:>7.2f}x")


if __name__ == "__main__":
    main()
