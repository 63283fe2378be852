"""Synthetic datasets for the fine-tuning proxy experiments.

A separable-but-not-trivial multi-class problem with *non-negative,
sparse-ish* features (post-ReLU-like statistics) so DAP's magnitude
ranking faces realistic data: most per-block mass in a few features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Dataset", "synthetic_classification"]


@dataclass
class Dataset:
    """Train/test split of a synthetic classification problem."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def features(self) -> int:
        return self.x_train.shape[1]

    @property
    def classes(self) -> int:
        return int(self.y_train.max()) + 1

    def batches(self, batch_size: int, rng: np.random.Generator):
        """Shuffled minibatches over the training split."""
        order = rng.permutation(len(self.x_train))
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            yield self.x_train[idx], self.y_train[idx]


def synthetic_classification(
    samples: int = 1600,
    features: int = 64,
    classes: int = 12,
    noise: float = 1.0,
    test_fraction: float = 0.25,
    rng: Optional[np.random.Generator] = None,
) -> Dataset:
    """Gaussian class prototypes + noise, rectified to ReLU-like inputs.

    Each class activates ~40% of the features with moderate magnitudes
    against comparable noise; a small MLP baselines in the low-90s%,
    leaving headroom to observe pruning damage and fine-tuning recovery
    (the Table 3 dynamic) without being trivially separable.
    """
    if features % 8:
        raise ValueError(f"features must be a multiple of BZ=8, got {features}")
    rng = rng or np.random.default_rng(0)
    prototypes = np.zeros((classes, features))
    for c in range(classes):
        active = rng.choice(features, size=max(4, int(features * 0.4)),
                            replace=False)
        prototypes[c, active] = rng.uniform(0.5, 1.5, size=active.size)
    labels = rng.integers(0, classes, size=samples)
    x = prototypes[labels] + rng.normal(0.0, noise, size=(samples, features))
    x = np.maximum(x, 0.0)
    split = int(samples * (1.0 - test_fraction))
    return Dataset(
        x_train=x[:split], y_train=labels[:split],
        x_test=x[split:], y_test=labels[split:],
    )
