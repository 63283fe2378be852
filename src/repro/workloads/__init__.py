"""Workload descriptions and generators.

- :mod:`repro.workloads.from_spec`: DBB non-zero censuses synthesized
  from analytic :class:`~repro.models.specs.LayerSpec`s (the functional
  full-model pipeline, grouped by operand key in the layer runner), the
  patterns materialized from them on demand, and INT8 values on those
  patterns for callers that read a GEMM output.
- :mod:`repro.workloads.typical`: the "typical convolution layer" used
  by Fig. 1, Fig. 3 and Fig. 10.
"""

from repro.workloads.from_spec import (
    blocked_density_mask,
    spec_int8_operands,
    spec_operands,
)
from repro.workloads.typical import TYPICAL_CONV, typical_conv_layer

__all__ = [
    "blocked_density_mask",
    "spec_operands",
    "spec_int8_operands",
    "TYPICAL_CONV",
    "typical_conv_layer",
]
