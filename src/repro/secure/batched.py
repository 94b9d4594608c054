"""Batched SAC kernels: whole-subgroup share math in single numpy passes.

The per-peer splitting routines (:func:`repro.secure.additive.divide`,
:func:`~repro.secure.additive.divide_zero_sum`,
:func:`repro.secure.fixed_point.divide_ring` and their seeded variants)
each cost one or two RNG calls plus a Python-level loop *per owner*; a
subgroup of ``n`` peers therefore pays ``O(n)`` numpy dispatches for
share generation and ``O(n^2)`` for the seeded mask expansions.  This
module hoists the owner loop into the array shape: a stacked
``(b, *shape)`` batch of secrets is split into ``(b, n, *shape)`` shares
with a *single* RNG draw for all mask material.  Seeded masks are
expanded once each, straight into their rows of the output, by the
helper the per-peer path shares
(:func:`repro.secure.seedshare.expand_zero_sum_into`).

Bit-compatibility contract (relied on by the regression gate and the
property tests in ``tests/secure/test_batched.py``):

- ``batched_divide`` consumes the RNG stream exactly as ``b`` sequential
  :func:`~repro.secure.additive.divide` calls do (``Generator.random``
  fills row-major, so ``random((b, n))`` equals ``b`` draws of
  ``random(n)``) and produces bitwise-identical shares.  The only
  divergence is the measure-zero resample guard: when a row's random sum
  is below the conditioning threshold, only that row is redrawn (the
  sequential path would have interleaved the redraw mid-stream).
- ``batched_zero_sum`` and both seeded kernels are bitwise identical to
  the sequential loops for every batch size: normal variates fill
  row-major, 128-bit share seeds are two full-range ``uint64`` draws per
  seed (one ``next64`` each), and the float residual accumulations keep
  the sequential left-to-right order (float addition is not
  associative).
- ``batched_divide_ring`` collapses the per-owner pair of ``integers``
  draws into two batch draws; for ``b == 1`` the stream is unchanged,
  for ``b > 1`` the drawn masks differ from the sequential path but the
  share *sums* are exact either way (``uint64`` arithmetic is associative
  mod ``2^64``), so every reconstructed value is unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .philox import expand_ring_batch
from .seedshare import FLOAT_CODEC, SeedShare, expand_zero_sum_into

_MIN_SUM = 1e-3

_RING_HIGH = 2**64


def _as_batch(stack: np.ndarray, dtype=None) -> np.ndarray:
    stack = np.asarray(stack) if dtype is None else np.asarray(stack, dtype=dtype)
    if stack.ndim < 1:
        raise ValueError("batch must have at least one axis (the owners)")
    return stack


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one share, got n={n}")


def _residual_indices(
    b: int, n: int, residual_indices: int | Sequence[int] | None
) -> list[int]:
    if residual_indices is None:
        idx = [n - 1] * b
    elif isinstance(residual_indices, (int, np.integer)):
        idx = [int(residual_indices)] * b
    else:
        idx = [int(i) for i in residual_indices]
        if len(idx) != b:
            raise ValueError(
                f"need one residual index per owner: got {len(idx)} for b={b}"
            )
    for i in idx:
        if not 0 <= i < n:
            raise ValueError(f"residual index {i} out of range for n={n}")
    return idx


def draw_divide_noise(
    b: int, n: int, rng: np.random.Generator, max_resample: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """The random material of ``b`` Alg. 1 splits: ``(rn, row_totals)``.

    One ``rng.random((b, n))`` draw replaces ``b`` per-owner draws.  The
    conditioning guard (the paper leaves the tiny-sum case unspecified)
    is vectorized: row totals come from one ``sum(axis=1)`` pass — the
    same pairwise reduction over the same contiguous rows as the
    per-owner 1-D sums, hence bitwise identical — and only the
    measure-zero offending rows are redrawn in row order.

    Split out from :func:`batched_divide` so callers fanning the share
    *math* across workers (:mod:`repro.par`) can draw all noise on the
    parent stream first, keeping results bit-identical across
    ``parallel={"off","threads"}``.
    """
    _check_n(n)
    rn = rng.random((b, n))
    totals = rn.sum(axis=1)
    for i in np.flatnonzero(np.abs(totals) < _MIN_SUM):
        total = totals[i]
        for _ in range(max_resample):
            if abs(total) >= _MIN_SUM:
                break
            rn[i] = rng.random(n)
            total = rn[i].sum()
        else:  # pragma: no cover - U(0,1) sums virtually never stay tiny
            raise RuntimeError("could not draw a well-conditioned random split")
        totals[i] = total
    return rn, totals


def apply_divide_noise(
    stack: np.ndarray, rn: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Deterministic half of :func:`batched_divide`: normalize + multiply."""
    stack = _as_batch(stack)
    prn = rn / totals[:, None]
    tail = (1,) * (stack.ndim - 1)
    return prn.reshape(rn.shape + tail) * stack[:, None]


def batched_divide(
    stack: np.ndarray, n: int, rng: np.random.Generator, max_resample: int = 100
) -> np.ndarray:
    """Alg. 1 splits for a whole batch: ``(b, *shape) -> (b, n, *shape)``.

    One ``rng.random((b, n))`` draw replaces ``b`` per-owner draws;
    shares are bitwise identical to sequential :func:`additive.divide`
    calls (same stream, same elementwise multiplies).
    """
    stack = _as_batch(stack)
    rn, totals = draw_divide_noise(stack.shape[0], n, rng, max_resample)
    return apply_divide_noise(stack, rn, totals)


def batched_zero_sum(
    stack: np.ndarray,
    n: int,
    rng: np.random.Generator,
    mask_scale: float = 1.0,
) -> np.ndarray:
    """Zero-sum splits for a whole batch: ``n-1`` masks + residual each.

    One ``rng.normal`` draw of shape ``(b, n-1, *shape)`` replaces the
    per-owner draws (normal variates fill row-major, so the stream is
    identical); residuals keep the per-owner ``masks.sum(axis=0)``
    reduction so every share is bitwise identical to sequential
    :func:`additive.divide_zero_sum` calls.
    """
    _check_n(n)
    stack = _as_batch(stack, dtype=np.float64)
    b = stack.shape[0]
    shape = stack.shape[1:]
    out = np.empty((b, n) + shape, dtype=np.float64)
    if n == 1:
        out[:, 0] = stack
        return out
    out[:, :-1] = rng.normal(0.0, mask_scale, size=(b, n - 1) + shape)
    for i in range(b):
        np.subtract(stack[i], out[i, :-1].sum(axis=0), out=out[i, -1])
    return out


def batched_seed_keys(
    count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` 128-bit share seeds as one RNG pass.

    Returns an ``(count, 2)`` ``uint64`` array of ``(hi, lo)`` words.
    Full-range ``uint64`` draws consume exactly one ``next64`` per
    element, so the flattened sequence equals ``count`` sequential
    :func:`repro.secure.seedshare.draw_seed` calls bit for bit.
    """
    return rng.integers(0, _RING_HIGH, size=(count, 2), dtype=np.uint64)


def _seed_int(words: np.ndarray) -> int:
    return (int(words[0]) << 64) | int(words[1])


def batched_seeded_zero_sum_dense(
    stack: np.ndarray,
    n: int,
    rng: np.random.Generator,
    residual_indices: int | Sequence[int] | None = None,
    mask_scale: float = 1.0,
) -> np.ndarray:
    """Materialized seeded zero-sum splits for a whole batch.

    Equivalent to ``seeded_zero_sum_shares(..., residual_index=r_i)
    .materialize()`` per owner, but the ``(n-1) * b`` seeds come from one
    RNG pass.  Each owner's split is filled by the same in-place
    expansion helper the per-peer path uses
    (:func:`~repro.secure.seedshare.expand_zero_sum_into`), so every
    mask is expanded once, straight into its row, and the result is
    bitwise identical for every batch size.
    """
    _check_n(n)
    stack = _as_batch(stack, dtype=np.float64)
    b = stack.shape[0]
    shape = stack.shape[1:]
    res = _residual_indices(b, n, residual_indices)
    out = np.empty((b, n) + shape, dtype=np.float64)
    keys = batched_seed_keys(b * (n - 1), rng).reshape(b, max(n - 1, 0), 2)
    for i in range(b):
        mask_rows = [j for j in range(n) if j != res[i]]
        seeds = {
            j: SeedShare(
                _seed_int(keys[i, slot]), shape, FLOAT_CODEC,
                mask_scale=mask_scale,
            )
            for slot, j in enumerate(mask_rows)
        }
        expand_zero_sum_into(out[i], stack[i], seeds, res[i])
    return out


def batched_divide_ring(
    qstack: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Ring splits for a whole batch: ``(b, *shape) -> (b, n, *shape)``.

    Two batch ``integers`` draws replace the per-owner pairs.  For
    ``b == 1`` the RNG stream matches :func:`fixed_point.divide_ring`
    exactly; for larger batches the drawn masks differ but every share
    *sum* is exact mod ``2^64`` regardless.
    """
    _check_n(n)
    qstack = _as_batch(qstack, dtype=np.uint64)
    b = qstack.shape[0]
    shape = qstack.shape[1:]
    out = np.empty((b, n) + shape, dtype=np.uint64)
    if n == 1:
        out[:, 0] = qstack
        return out
    out[:, :-1] = rng.integers(
        0, 2**63, size=(b, n - 1) + shape, dtype=np.uint64
    ) | (
        rng.integers(0, 2, size=(b, n - 1) + shape, dtype=np.uint64)
        << np.uint64(63)
    )
    # uint64 sums are associative mod 2^64: the vectorized reduction is
    # exactly the sequential subtraction loop.
    np.subtract(qstack, out[:, :-1].sum(axis=1, dtype=np.uint64), out=out[:, -1])
    return out


def batched_seeded_ring_dense(
    qstack: np.ndarray,
    n: int,
    rng: np.random.Generator,
    residual_indices: int | Sequence[int] | None = None,
) -> np.ndarray:
    """Materialized seeded ring splits for a whole batch.

    Bitwise identical to per-owner ``seeded_ring_shares(...).materialize()``
    for every batch size: seed draws are sequential ``next64`` pairs, all
    ``b * (n - 1)`` masks expand in one vectorized Philox pass
    (:func:`repro.secure.philox.expand_ring_batch`), and the residual
    subtraction is exact mod ``2^64`` in any order.
    """
    _check_n(n)
    qstack = _as_batch(qstack, dtype=np.uint64)
    b = qstack.shape[0]
    shape = qstack.shape[1:]
    res = _residual_indices(b, n, residual_indices)
    out = np.empty((b, n) + shape, dtype=np.uint64)
    keys = batched_seed_keys(b * (n - 1), rng)
    d = int(np.prod(shape)) if shape else 1
    masks = expand_ring_batch(keys[:, 0], keys[:, 1], d)
    masks = masks.reshape((b, n - 1) + shape)
    res_arr = np.asarray(res, dtype=np.int64)
    slots = np.arange(n - 1)
    # Scatter mask slot s of owner i to share index s (+1 past the
    # owner's residual slot).
    jj = slots[None, :] + (slots[None, :] >= res_arr[:, None])
    out[np.arange(b)[:, None], jj] = masks
    out[np.arange(b), res_arr] = qstack - masks.sum(axis=1, dtype=np.uint64)
    return out
