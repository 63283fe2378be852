"""Accelerator power, performance and area models.

Analytic (closed-form) models of every accelerator the paper evaluates,
operating on :class:`~repro.models.specs.LayerSpec` workloads. Event
formulas mirror the cycle-level simulator in :mod:`repro.arch.systolic`
(validated against it in the test suite) but are parameterized by layer
densities instead of concrete tensors, so whole ImageNet networks cost
microseconds to evaluate.

Models:

- :class:`~repro.accel.sa.DenseSA` / :class:`~repro.accel.sa.ZvcgSA` —
  the classic 32x64 scalar systolic array, without/with zero-value clock
  gating (1x1x1_32x64 in the paper's notation).
- :class:`~repro.accel.smt.SmtSA` — SA-SMT (T2Q2/T2Q4) with the staging
  FIFO queueing model.
- :class:`~repro.accel.s2ta.S2TAW` — S2TA-W, 4x8x4_4x8 DP4M8 TPE array
  (W-DBB only; the A100-featured baseline).
- :class:`~repro.accel.s2ta.S2TAAW` — S2TA-AW, the time-unrolled
  8x4x4_8x8 DP1M4 TPE array (joint A/W-DBB; the paper's design point).
- :class:`~repro.accel.sparten.SparTen` and
  :class:`~repro.accel.eyeriss.EyerissV2` — calibrated analytical models
  of the published non-systolic unstructured-sparse accelerators.
"""

from repro.accel.base import AcceleratorModel, AccelRunResult, LayerResult
from repro.accel.eyeriss import EyerissV2
from repro.accel.fixed import FixedDataflowModel
from repro.accel.s2ta import S2TAW, S2TAAW, S2TAWA
from repro.accel.sa import DenseSA, ZvcgSA
from repro.accel.scnn import SCNN
from repro.accel.smt import SmtSA
from repro.accel.sparten import SparTen

__all__ = [
    "AcceleratorModel",
    "AccelRunResult",
    "LayerResult",
    "FixedDataflowModel",
    "DenseSA",
    "ZvcgSA",
    "SmtSA",
    "S2TAW",
    "S2TAAW",
    "S2TAWA",
    "SCNN",
    "SparTen",
    "EyerissV2",
]
