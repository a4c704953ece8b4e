"""Window-extraction kernels checked against a brute-force oracle.

The oracle builds each window cell by cell with nested Python loops, so
any indexing or padding mistake in the vectorized kernels shows up as a
mismatch. Batched (B, H, W, D) grids are checked slice by slice against
the oracle, and each slice must equal the kernel's own call on that one
grid bit for bit.
"""

import numpy as np
import pytest

from hmn.kernels import unfold_grid, unfold_grid_bwd

from conftest import assert_same_bits


def oracle_unfold(grid, k):
    h, w, d = grid.shape
    pad = k // 2
    out = np.zeros((h * w, k * k * d))
    for r in range(h):
        for c in range(w):
            for dr in range(k):
                for dc in range(k):
                    rr, cc = r + dr - pad, c + dc - pad
                    if 0 <= rr < h and 0 <= cc < w:
                        for ch in range(d):
                            out[r * w + c, (dr * k + dc) * d + ch] = grid[rr, cc, ch]
    return out


def check_batched_unfold(grids, k):
    """Unfold of a (B, H, W, D) stack equals the oracle and the single-grid
    kernel on every slice, exactly."""
    got = unfold_grid(grids, k)
    b, h, w, d = grids.shape
    assert got.shape == (b, h * w, k * k * d)
    for i in range(b):
        np.testing.assert_array_equal(got[i], oracle_unfold(grids[i], k))
        np.testing.assert_array_equal(got[i], unfold_grid(grids[i], k))


def test_matches_oracle_small(rng):
    grid = rng.standard_normal((4, 5, 3))
    got = unfold_grid(grid, 3)
    np.testing.assert_array_equal(got, oracle_unfold(grid, 3))
    check_batched_unfold(rng.standard_normal((3, 4, 5, 3)), 3)


def test_matches_oracle_k5(rng):
    grid = rng.standard_normal((6, 4, 2))
    np.testing.assert_array_equal(unfold_grid(grid, 5), oracle_unfold(grid, 5))
    check_batched_unfold(rng.standard_normal((2, 6, 4, 2)), 5)


def test_matches_oracle_many_random(rng):
    # broad sweep over grid shapes and window sizes, exact equality
    for _ in range(100):
        h = int(rng.integers(1, 8))
        w = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5]))
        grid = rng.standard_normal((h, w, d))
        np.testing.assert_array_equal(unfold_grid(grid, k), oracle_unfold(grid, k))
        check_batched_unfold(rng.standard_normal((int(rng.integers(1, 4)), h, w, d)), k)


def test_k1_is_identity(rng):
    grid = rng.standard_normal((3, 3, 4))
    out = unfold_grid(grid, 1)
    np.testing.assert_array_equal(out, grid.reshape(9, 4))


def test_center_cell_is_own_token(rng):
    grid = rng.standard_normal((5, 5, 2))
    out = unfold_grid(grid, 3)
    center = 3 * 1 + 1  # dr=1, dc=1
    for r in range(5):
        for c in range(5):
            np.testing.assert_array_equal(
                out[r * 5 + c, center * 2:(center + 1) * 2], grid[r, c])


def test_even_k_rejected(rng):
    with pytest.raises(ValueError):
        unfold_grid(rng.standard_normal((4, 4, 2)), 2)


def test_border_padding_is_zero():
    grid = np.ones((2, 2, 1))
    out = unfold_grid(grid, 3)
    # top-left token: rows dr=0 fall outside, dc=0 falls outside
    row = out[0]
    assert row[0] == 0.0 and row[1] == 0.0 and row[2] == 0.0
    assert row[3] == 0.0 and row[4] == 1.0 and row[5] == 1.0


def oracle_unfold_bwd(dout, h, w, d, k):
    pad = k // 2
    acc = np.zeros((h, w, d))
    for r in range(h):
        for c in range(w):
            for dr in range(k):
                for dc in range(k):
                    rr, cc = r + dr - pad, c + dc - pad
                    if 0 <= rr < h and 0 <= cc < w:
                        for ch in range(d):
                            acc[rr, cc, ch] += dout[r * w + c, (dr * k + dc) * d + ch]
    return acc


def test_backward_matches_oracle(rng):
    h, w, d, k = 5, 4, 3, 3
    dout = rng.standard_normal((h * w, k * k * d))
    got = unfold_grid_bwd(dout, (h, w, d), k)
    np.testing.assert_allclose(got, oracle_unfold_bwd(dout, h, w, d, k), rtol=1e-12)
    # batched stacks, slice by slice
    for b, h, w, d, k in [(3, 5, 4, 3, 3), (2, 1, 1, 2, 3), (4, 3, 6, 1, 5), (2, 2, 2, 2, 1)]:
        dout = rng.standard_normal((b, h * w, k * k * d))
        got = unfold_grid_bwd(dout, (b, h, w, d), k)
        assert got.shape == (b, h, w, d)
        for i in range(b):
            np.testing.assert_allclose(got[i], oracle_unfold_bwd(dout[i], h, w, d, k),
                                       rtol=1e-12)
            np.testing.assert_array_equal(got[i], unfold_grid_bwd(dout[i], (h, w, d), k))


def padded_unfold_bwd(dout, shape, k):
    """The adjoint accumulated on a zero-padded grid, shifts in ascending
    (dr, dc) order, then cropped: the same sums per cell as unfold_grid_bwd."""
    *lead, h, w, d = shape
    pad = k // 2
    d6 = dout.reshape(*lead, h, w, k, k, d)
    acc = np.zeros((*lead, h + 2 * pad, w + 2 * pad, d), dtype=dout.dtype)
    for dr in range(k):
        for dc in range(k):
            acc[..., dr:dr + h, dc:dc + w, :] += d6[..., dr, dc, :]
    return acc[..., pad:pad + h, pad:pad + w, :]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_keeps_the_bits_of_the_padded_accumulation(rng, dtype):
    # windows wider than the grid included: offsets past both edges
    for shape, k in [((3, 7, 7, 4), 3), ((2, 1, 1, 3), 3), ((2, 2, 3, 2), 7), ((4, 3, 6, 1), 5)]:
        h, w, d = shape[-3:]
        dout = rng.standard_normal((*shape[:-3], h * w, k * k * d)).astype(dtype)
        dout.reshape(-1)[::5] = -0.0
        got = unfold_grid_bwd(dout, shape, k)
        want = padded_unfold_bwd(dout, shape, k)
        assert got.flags.c_contiguous
        assert_same_bits(got, want)


def test_backward_is_adjoint(rng):
    # <unfold(x), y> == <x, unfold_bwd(y)> for the linear map, one grid or a stack
    for shape, k in [((6, 6, 2), 3), ((3, 5, 4, 2), 3), ((2, 4, 4, 1), 5)]:
        x = rng.standard_normal(shape)
        y = rng.standard_normal(unfold_grid(x, k).shape)
        lhs = float((unfold_grid(x, k) * y).sum())
        rhs = float((x * unfold_grid_bwd(y, shape, k)).sum())
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
