"""Neighborhood gather and its scatter-add adjoint, batched over leading axes.

Both kernels take grids shaped (..., H, W, D): any leading axes (one per
image, say) ride along, and a plain (H, W, D) grid is the case with none.
The gather only copies and zero-pads, and the adjoint adds the k² window
shifts into a zeroed output grid in ascending (dr, dc) order, so every
grid in a batch gets the same bits it would get on its own. Both compute
in their input's dtype by the rule of ``as_float``.
"""

import numpy as np


def as_float(x):
    """x as an array of the dtype it computes in: float32 stays float32,
    anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def unfold_grid(grid, k):
    """Gather the k x k neighborhood of every cell of (..., H, W, D) grids.

    Returns (..., H·W, k²·D). Row i (row-major cell order) holds the window
    flattened as window-row, then window-col, then channel; cells outside
    the grid contribute zeros. k must be odd so windows center on their cell.
    """
    if k % 2 == 0 or k < 1:
        raise ValueError(f"window size must be odd and positive, got {k}")
    grid = as_float(grid)
    *lead, h, w, d = grid.shape
    pad = k // 2
    padded = np.zeros((*lead, h + 2 * pad, w + 2 * pad, d), dtype=grid.dtype)
    padded[..., pad:pad + h, pad:pad + w, :] = grid
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(-3, -2))
    # windows: (..., h, w, d, k, k) -> rows ordered window-row, window-col, channel
    return np.ascontiguousarray(np.moveaxis(windows, -3, -1)).reshape(*lead, h * w, k * k * d)


def unfold_grid_bwd(dout, shape, k):
    """Scatter-add adjoint of ``unfold_grid`` back onto grids of ``shape``.

    dout is (..., H·W, k²·D) for a grid shape (..., H, W, D).
    """
    *lead, h, w, d = shape
    pad = k // 2
    d6 = as_float(dout).reshape(*lead, h, w, k, k, d)
    acc = np.zeros(shape, dtype=d6.dtype)
    for dr in range(k):
        rows, src_rows = _shifted(dr - pad, h)
        for dc in range(k):
            cols, src_cols = _shifted(dc - pad, w)
            acc[..., rows, cols, :] += d6[..., src_rows, src_cols, dr, dc, :]
    return acc


def _shifted(s, n):
    """(destination, source) slices of a length-n axis for window offset s:
    window cell i reads grid cell i + s, and offsets past the edge read the
    zero padding, which the adjoint drops."""
    lo = max(s, 0)
    hi = max(min(n, n + s), lo)
    return slice(lo, hi), slice(lo - s, hi - s)
