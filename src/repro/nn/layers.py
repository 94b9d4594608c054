"""Layers: Dense, Conv2D (im2col), MaxPool2D, Dropout, Flatten, ReLU, Softmax.

Conventions
-----------
- Image tensors are NCHW ``(batch, channels, height, width)``.
- ``forward(x, training)`` caches whatever ``backward`` needs.
- ``backward(grad)`` returns the gradient w.r.t. the layer input and
  fills each parameter's ``.grad`` (accumulated per batch, overwritten on
  the next backward pass).
- Parameters are :class:`Param` objects so optimizers can iterate them
  uniformly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .initializers import glorot_uniform, zeros


class Param:
    """A trainable tensor with its gradient buffer."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Param({self.name}, shape={self.value.shape})"


class Layer:
    """Base layer."""

    def params(self) -> list[Param]:
        """Trainable parameters, in a stable order."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        init: Callable = glorot_uniform,
    ) -> None:
        self.in_features = in_features
        self.out_features = out_features
        self.W = Param(init((in_features, out_features), rng), "W")
        self.b = Param(zeros((out_features,)), "b")
        self._x: np.ndarray | None = None

    def params(self) -> list[Param]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        np.matmul(self._x.T, grad, out=self.W.grad)
        np.sum(grad, axis=0, out=self.b.grad)
        return grad @ self.W.value.T


class Conv2D(Layer):
    """2-D convolution (cross-correlation) via im2col + GEMM.

    Supports ``padding='valid'`` or ``'same'`` (stride 1 preserves the
    spatial size for odd kernels), stride >= 1.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: str = "valid",
        init: Callable = glorot_uniform,
    ) -> None:
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        if kernel_size < 1 or stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.W = Param(
            init((out_channels, in_channels, kernel_size, kernel_size), rng), "W"
        )
        self.b = Param(zeros((out_channels,)), "b")
        self._cache: tuple | None = None

    def params(self) -> list[Param]:
        return [self.W, self.b]

    def _pad_amount(self) -> int:
        if self.padding == "valid":
            return 0
        if self.kernel_size % 2 == 0:
            raise ValueError("'same' padding requires an odd kernel size")
        return (self.kernel_size - 1) // 2

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        n, c = x.shape[:2]
        k, s = self.kernel_size, self.stride
        pad = self._pad_amount()
        if pad:
            x_pad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        else:
            x_pad = x
        # im2col: every (k, k) window as a strided view, subsampled by the
        # stride, then one C-contiguous copy laid out as (n, C*k*k, L).
        view = np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(2, 3))
        view = view[:, :, ::s, ::s]
        out_h, out_w = view.shape[2], view.shape[3]
        cols = view.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, -1)
        w_row = self.W.value.reshape(self.out_channels, -1)
        out = w_row @ cols  # (n, F, out_h*out_w) via batched GEMM
        out += self.b.value[:, None]
        self._cache = (x_pad.shape, cols, out_h, out_w)
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        x_pad_shape, cols, out_h, out_w = self._cache
        self._cache = None
        n = grad.shape[0]
        f, c = self.out_channels, self.in_channels
        k, s = self.kernel_size, self.stride
        grad2 = grad.reshape(n, f, -1)  # (n, F, L)
        # dW: sum over batch of grad2 @ cols^T, contracted over (n, L) in
        # one GEMM (tensordot) instead of an unoptimized einsum loop.
        dw = np.tensordot(grad2, cols, axes=([0, 2], [0, 2]))
        self.W.grad[...] = dw.reshape(self.W.value.shape)
        np.sum(grad2, axis=(0, 2), out=self.b.grad)
        # dcols = W^T @ grad2 : (n, C*k*k, L) via batched GEMM
        w_row = self.W.value.reshape(f, -1)
        dcols = np.matmul(w_row.T, grad2).reshape(n, c, k, k, out_h, out_w)
        # col2im: one strided slice-add per kernel offset, in row-major
        # (di, dj) order -- the per-element summation order of a scatter-add
        # over the im2col indices, so the result is bitwise the same.
        dx_pad = np.zeros(x_pad_shape)
        for di in range(k):
            for dj in range(k):
                dx_pad[
                    :, :, di : di + s * out_h : s, dj : dj + s * out_w : s
                ] += dcols[:, :, di, dj]
        pad = self._pad_amount()
        if pad:
            return dx_pad[:, :, pad:-pad, pad:-pad]
        return dx_pad


class MaxPool2D(Layer):
    """Max pooling with a square window; default 2x2 stride 2 (Fig. 5)."""

    def __init__(self, pool_size: int = 2, stride: int | None = None) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"MaxPool2D expects NCHW, got shape {x.shape}")
        n, c, h, w = x.shape
        p, s = self.pool_size, self.stride
        out_h = (h - p) // s + 1
        out_w = (w - p) // s + 1
        if p == s and h % p == 0 and w % p == 0:
            # Fast path: non-overlapping windows as a reshape.
            view = x.reshape(n, c, out_h, p, out_w, p)
            windows = view.transpose(0, 1, 2, 4, 3, 5).reshape(
                n, c, out_h, out_w, p * p
            )
        else:
            # General path (also handles truncation like 13 -> 6 in Fig. 5):
            # all (p, p) windows as one strided view, subsampled by stride.
            # The trailing (p, p) axes flatten to the di * p + dj order the
            # backward pass decodes.
            view = np.lib.stride_tricks.sliding_window_view(x, (p, p), axis=(2, 3))
            windows = view[:, :, ::s, ::s].reshape(n, c, out_h, out_w, p * p)
        argmax = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, argmax)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        x_shape, argmax = self._cache
        n, c, h, w = x_shape
        p, s = self.pool_size, self.stride
        out_h, out_w = argmax.shape[2], argmax.shape[3]
        dx = np.zeros(x_shape)
        if s == p:
            # Non-overlapping windows: each input cell gets at most one
            # gradient, so a plain scatter into per-window slots suffices.
            dwin = np.zeros((n, c, out_h, out_w, p * p))
            np.put_along_axis(dwin, argmax[..., None], grad[..., None], axis=-1)
            tile = dwin.reshape(n, c, out_h, out_w, p, p).transpose(
                0, 1, 2, 4, 3, 5
            )
            dx[:, :, : out_h * p, : out_w * p] = tile.reshape(
                n, c, out_h * p, out_w * p
            )
            return dx
        # Overlapping/strided windows need scatter-add.
        di = argmax // p
        dj = argmax % p
        oi = np.arange(out_h)[None, None, :, None]
        oj = np.arange(out_w)[None, None, None, :]
        rows = oi * s + di
        cols = oj * s + dj
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(dx, (ni, ci, rows, cols), grad)
        return dx


class Dropout(Layer):
    """Inverted dropout: active only in training mode."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Flatten(Layer):
    """Collapse all non-batch axes."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "backward before forward"
        return grad.reshape(self._shape)


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward before forward"
        return grad * self._mask


class Softmax(Layer):
    """Row-wise softmax.

    When the model ends in Softmax and trains with
    :class:`~repro.nn.loss.CategoricalCrossEntropy`, the combined gradient
    simplifies to ``p - y``; :class:`~repro.nn.model.Sequential` applies
    that fusion automatically for numerical stability.
    """

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        shifted = x - x.max(axis=1, keepdims=True)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=1, keepdims=True)
        self._out = shifted
        return shifted

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._out is not None, "backward before forward"
        p = self._out
        dot = np.sum(grad * p, axis=1, keepdims=True)
        return p * (grad - dot)
