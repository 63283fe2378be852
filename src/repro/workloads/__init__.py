"""Workload descriptions and generators.

- :mod:`repro.workloads.microbench`: the Sec. 8.2 synthetic sweep layers
  and concrete operand generators for the functional simulator.
- :mod:`repro.workloads.from_spec`: DBB non-zero censuses synthesized
  from analytic :class:`~repro.models.specs.LayerSpec`s (the functional
  full-model pipeline, grouped by operand key in the layer runner), the
  patterns materialized from them on demand, and INT8 values on those
  patterns for callers that read a GEMM output.
- :mod:`repro.workloads.typical`: the "typical convolution layer" used
  by Fig. 1, Fig. 3 and Fig. 10.
"""

from repro._lazy import lazy_exports
from repro.workloads.from_spec import (
    blocked_density_mask,
    spec_int8_operands,
    spec_operands,
)
from repro.workloads.typical import TYPICAL_CONV, typical_conv_layer

__all__ = [
    "sweep_layer",
    "sparsity_sweep",
    "microbench_operands",
    "blocked_density_mask",
    "spec_operands",
    "spec_int8_operands",
    "TYPICAL_CONV",
    "typical_conv_layer",
]

# Not on an artifact run's path: each module loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "sweep_layer": "microbench",
    "sparsity_sweep": "microbench",
    "microbench_operands": "microbench",
})
