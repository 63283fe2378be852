"""Walk through the DAP hardware maxpool cascade (Fig. 8).

Shows each magnitude-maxpool stage selecting the next-largest element,
the cumulative Top-k bitmask after every stage, bit-exactness against
the algorithmic DAP, and per-layer NNZ tuning on INT8 ReLU activations
of growing sparsity.

Run:  python examples/dap_hardware_walkthrough.py
"""

import numpy as np

from repro.arch.dap_hw import DAPHardware
from repro.core.dap import dap_prune, tune_layer_nnz
from repro.core.dbb import DBBSpec
from repro.core.sparsity import density


def main() -> None:
    # The Fig. 8 worked example: 4/8 DAP keeps [4, 5, -7, 6], M = 0x4D.
    block = np.array([4, -1, 5, -7, 0, 1, 6, 2])
    hw = DAPHardware(block_size=8, max_stages=5)
    print(f"input block: {block.tolist()}")
    compressed, traces, events = hw.prune_block(block, nnz=5)
    for trace in traces:
        kept = block[trace.selected_position]
        print(f"  stage {trace.stage + 1}: select position "
              f"{trace.selected_position} (value {kept:+d}) "
              f"-> cumulative mask {trace.cumulative_mask:#04x}")
    top4, _, _ = hw.prune_block(block, nnz=4)
    values = [int(v) for v in top4.values]
    print(f"4/8 output: values {values}, mask {top4.mask:#04x} "
          f"(paper: [4, 5, -7, 6], 0x4D)")
    print(f"comparator ops for 5 stages: {events.dap_compare_ops} "
          f"(= 5 x (BZ-1))")

    # Bit-exact with the algorithmic DAP over a random tensor.
    rng = np.random.default_rng(0)
    x = rng.integers(-128, 128, size=(16, 64)).astype(np.int8)
    hw_out, _ = hw.prune_tensor(x, nnz=3)
    sw_out = dap_prune(x, DBBSpec(8, 3)).pruned
    assert np.array_equal(hw_out, sw_out)
    print("\nhardware cascade == software Top-NNZ, bit-exact over a "
          "16x64 tensor")

    # Per-layer NNZ tuning (Sec. 5.2: density varies wildly across
    # layers, so S2TA-AW tunes NNZ per layer). Seeded INT8 ReLU outputs
    # whose pre-activations shift down layer by layer stand in for a
    # network's increasingly sparse feature maps.
    print("\nper-layer A-DBB tuning on INT8 ReLU activations "
          "(keep 97% of L1 mass):")
    for name, shift in (("conv1", 1.5), ("conv2", 0.5), ("conv3", -0.5),
                        ("conv4", -1.0), ("conv5", -1.5)):
        pre = rng.normal(loc=shift, size=(256, 64))
        acts = np.clip(np.rint(pre * 32), 0, 127).astype(np.int8)
        nnz = tune_layer_nnz(acts, DBBSpec(8, 4), keep_threshold=0.97)
        label = f"{nnz}/8" if nnz < 8 else "8/8 (dense bypass)"
        print(f"  {name:<6} density {density(acts):.2f} "
              f"-> tuned A-DBB {label}")


if __name__ == "__main__":
    main()
