"""Reproduce the Table 3 training dynamic: prune, drop, recover.

Runs the paper's DBB-aware training recipe — progressive per-block
magnitude weight pruning plus the DAP straight-through estimator — on
the proxy model/dataset (ImageNet is unavailable offline; the
``repro.train`` docstring documents the substitution).

Run:  python examples/finetune_dbb.py
"""

import numpy as np

from repro.core.dbb import DBBSpec
from repro.train import MLP, dbb_finetune, synthetic_classification


def run_variant(name, a_spec, w_spec, seed=7):
    rng = np.random.default_rng(seed)
    data = synthetic_classification(rng=rng)
    model = MLP(64, [64, 64], 12, dap_spec=a_spec, rng=rng)
    report = dbb_finetune(model, data, w_spec=w_spec, rng=rng)
    print(f"{name:<22} baseline {report.baseline_acc:5.1f}%  "
          f"pruned {report.pruned_acc:5.1f}%  "
          f"finetuned {report.finetuned_acc:5.1f}%  "
          f"(final loss {report.final_loss:+.1f} pts)")
    return report


def main() -> None:
    print("DBB fine-tuning on the synthetic proxy task "
          "(Table 3 reproduction):\n")
    run_variant("A-DBB 3/8", DBBSpec(8, 3), None)
    run_variant("W-DBB 4/8", None, DBBSpec(8, 4))
    joint = run_variant("A/W-DBB 3/8 + 4/8", DBBSpec(8, 3), DBBSpec(8, 4))
    run_variant("W-DBB 2/8 aggressive", None, DBBSpec(8, 2))
    print(
        "\nThe paper's MobileNetV1 example: 71% -> 56.1% after 4/8 DAP,\n"
        "recovered to 70.2% by 30 epochs of DAP-aware fine-tuning. The\n"
        "same dynamic appears above: pruning costs accuracy, DBB-aware\n"
        f"fine-tuning recovers {joint.recovered:.1f} points of it."
    )


if __name__ == "__main__":
    main()
