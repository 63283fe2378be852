"""Minimal reverse-mode automatic differentiation on numpy arrays.

Supports exactly the operations the DBB fine-tuning experiments need:
matmul, broadcast add, elementwise multiply, ReLU, constant-mask
application (the DAP straight-through estimator), reductions and a
numerically stable softmax cross-entropy. Gradients are validated
against numerical differentiation in the test suite.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["Tensor", "cross_entropy"]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    # sum out prepended axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum along broadcast (size-1) axes
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with reverse-mode gradient tracking."""

    def __init__(self, data, requires_grad: bool = False,
                 _parents: Tuple["Tensor", ...] = (),
                 _backward: Optional[Callable[[np.ndarray], None]] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------ #

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def _make(self, data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires,
                      _parents=parents if requires else (),
                      _backward=backward if requires else None)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # ------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------ #

    def __add__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(out_data, (self, other), backward)

    def __mul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad @ other.data.T)
            other._accumulate(self.data.T @ grad)

        return self._make(out_data, (self, other), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def apply_mask(self, mask: np.ndarray) -> "Tensor":
        """Elementwise multiply by a constant 0/1 mask.

        This is DAP's straight-through estimator: the forward pass zeroes
        pruned elements; the backward pass propagates gradients only
        through the kept (Top-NNZ) positions — exactly the paper's
        d(DAP)/da binary mask (Sec. 8.1).
        """
        mask = np.asarray(mask, dtype=np.float64)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def sum(self) -> "Tensor":
        out_data = np.asarray(self.data.sum())

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.full_like(self.data, float(grad)))

        return self._make(out_data, (self,), backward)

    def mean(self) -> "Tensor":
        out_data = np.asarray(self.data.mean())
        count = self.data.size

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.full_like(self.data, float(grad) / count))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------ #

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar output, got shape {self.shape}"
            )
        topo: List[Tensor] = []
        visited = set()

        def build(node: Tensor) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                build(parent)
            topo.append(node)

        build(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.shape}, "
                f"requires_grad={self.requires_grad})")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of ``(N, C)`` logits vs integer labels."""
    labels = np.asarray(labels)
    n = logits.data.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},), got {labels.shape}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    losses = -np.log(probs[np.arange(n), labels] + 1e-12)
    out_data = np.asarray(losses.mean())

    def backward(grad: np.ndarray) -> None:
        dlogits = probs.copy()
        dlogits[np.arange(n), labels] -= 1.0
        logits._accumulate(dlogits * (float(grad) / n))

    requires = logits.requires_grad
    return Tensor(out_data, requires_grad=requires,
                  _parents=(logits,) if requires else (),
                  _backward=backward if requires else None)
