"""Reverse-mode engine tests.

Every differentiable op is checked against central differences computed
by a helper local to this file (independent of the package's own FD
harness, which gets its own tests at the bottom). Value-level oracles
are closed forms worked out by hand.
"""

import ast
import math
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hmn.autodiff as ad
from hmn.autodiff import Tensor
from hmn.config import RunConfig, load_config
from hmn.memory import MemoryBank
from hmn.retrieval import retrieve_rows

from conftest import assert_same_bits, total


def numeric_grad(build, param, step=1e-6):
    """Central-difference d build() / d param, rebuilt per probe."""
    num = np.zeros_like(param.value)
    flat_v = param.value.reshape(-1)
    flat_n = num.reshape(-1)
    for i in range(flat_v.size):
        keep = flat_v[i]
        flat_v[i] = keep + step
        hi = build().value.item()
        flat_v[i] = keep - step
        lo = build().value.item()
        flat_v[i] = keep
        flat_n[i] = (hi - lo) / (2.0 * step)
    return num


def fd_check(build, params, tol=1e-6, step=1e-6):
    for p in params:
        p.requires_grad = True
        p.grad = None
    ad.backward(build())
    for p in params:
        got = p.grad if p.grad is not None else np.zeros_like(p.value)
        want = numeric_grad(build, p, step=step)
        denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-8)
        worst = float((np.abs(got - want) / denom).max())
        assert worst < tol, f"gradient mismatch {worst:.3e}"


def scalarize(t, proj):
    # project rows through a fixed matrix so dout is non-uniform
    return total(ad.matmul(t, proj))


# ------------------------------------------------------------- value oracles

def test_matmul_example():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.value.shape == (1, 1)
    assert out.value[0, 0] == 11.0


def test_matmul_identity(rng):
    a = rng.standard_normal((4, 4))
    out = ad.matmul(Tensor(a), Tensor(np.eye(4)))
    np.testing.assert_array_equal(out.value, a)


def test_matmul_grouped_value_matches_per_group(rng):
    a = rng.standard_normal((3, 2, 3))
    b = rng.standard_normal((3, 5))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = ad.matmul(ta, tb)
    dout = rng.standard_normal(out.shape)
    out._backward(dout)
    for g in range(3):
        np.testing.assert_array_equal(out.value[g], a[g] @ b)
    # backward does not depend on the stacking
    ua, ub = Tensor(a.reshape(6, 3), requires_grad=True), Tensor(b, requires_grad=True)
    ad.matmul(ua, ub)._backward(dout.reshape(6, 5))
    np.testing.assert_array_equal(ta.grad, ua.grad.reshape(3, 2, 3))
    np.testing.assert_array_equal(tb.grad, ub.grad)


def test_unfold_matmul_matches_per_image_kernel(rng):
    """A stacked batch projects exactly as image by image, and dx scatters
    each image's rows of dU back onto its own grid."""
    from hmn.kernels import unfold_grid, unfold_grid_bwd
    for groups, h, w, d, k in [(4, 3, 5, 2, 3), (3, 1, 1, 4, 3), (2, 4, 4, 3, 5)]:
        n, kd = h * w, k * k * d
        xv = rng.standard_normal((groups, n, d))
        wv, bv = rng.standard_normal((kd, 3)), rng.standard_normal(3)
        x = Tensor(xv, requires_grad=True)
        out = ad.unfold_matmul(x, h, w, k, Tensor(wv), Tensor(bv))
        dout = rng.standard_normal(out.shape)
        out._backward(dout)
        du = (dout.reshape(-1, 3) @ wv.T).reshape(groups, n, kd)
        for g in range(groups):
            alone = ad.unfold_matmul(Tensor(xv[g]), h, w, k, Tensor(wv), Tensor(bv))
            np.testing.assert_array_equal(out.value[g], alone.value)
            # the image's unfold as the first image of a zero-padded tile
            tile = np.zeros((ad._TILE * n, kd))
            tile[:n] = unfold_grid(xv[g].reshape(h, w, d), k)
            np.testing.assert_array_equal(out.value[g], (tile @ wv)[:n] + bv)
            np.testing.assert_array_equal(
                x.grad[g], unfold_grid_bwd(du[g], (h, w, d), k).reshape(n, d))


def forward_gemm_shapes(cfg):
    """Per-image (m, k, n) of every forward GEMM a model of cfg runs."""
    n, de, dl, r = cfg.n_tokens, cfg.d_emb, cfg.d_lat, cfg.mlp_ratio
    return {(n, cfg.patch_size ** 2 * cfg.in_channels, de),  # patch embedding
            (n, cfg.k * cfg.k * de, dl), (n, dl, cfg.k_local), (n, cfg.k_local, dl),
            (n, 2 * dl, de),  # local branch: unfold projection, read, out projection
            (1, de, dl), (1, dl, cfg.k_global), (1, cfg.k_global, dl), (1, 2 * dl, de),
            (n, de, r * de), (n, r * de, de),  # MLP
            (n, de, 1), (1, de, cfg.num_classes)}  # pooling scores, head


ROOT = pathlib.Path(__file__).resolve().parents[1]
# the shipped configs and the benchmark's desk shape
SHAPE_CONFIGS = [load_config(p) for p in sorted((ROOT / "configs").glob("*.json"))] + [
    RunConfig(dataset="synth_blobs", image_size=[28, 28], synth_classes=10, d_emb=64,
              d_lat=64, n_blocks=4, k=3, k_local=500, k_global=200, write_sample=4)]
# float64 shapes where OpenBLAS's dgemm rounds the last columns of a tile's
# last rows differently (n = 500 is not a multiple of 8)
FLOAT64_POSITIONAL = {(49, 64, 500)}


def tile_cases():
    shapes = sorted(set().union(*(forward_gemm_shapes(c) for c in SHAPE_CONFIGS)))
    for shape in shapes:
        yield pytest.param(shape, np.float32, id=f"{shape}-float32")
        marks = [pytest.mark.xfail(reason="dgemm rounds a tile's last rows differently")
                 ] if shape in FLOAT64_POSITIONAL else []
        yield pytest.param(shape, np.float64, id=f"{shape}-float64", marks=marks)


@pytest.mark.parametrize("shape,dtype", list(tile_cases()))
def test_tiled_rows_keep_their_bits_at_every_tile_position(rng, shape, dtype):
    """An image's rows come out of the tiled GEMM with the same bits at every
    position of a tile, beside random images or zero padding."""
    m, k, n = shape
    t = ad._TILE
    x = rng.standard_normal((t + 3, m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    # each image alone is the first image of a zero-padded tile
    alone = [ad._tiled_matmul(img, b) for img in x]
    # a full tile of random images, then a tail tile of three and padding
    for got, want in zip(ad._tiled_matmul(x, b), alone):
        assert_same_bits(got, want)
    for p in range(1, t):
        rolled = np.roll(x[:t], p, axis=0)
        assert_same_bits(ad._tiled_matmul(rolled, b)[p], alone[0])
        padded = np.zeros((p + 1, m, k), dtype)
        padded[p] = x[0]
        assert_same_bits(ad._tiled_matmul(padded, b)[p], alone[0])


def test_group_weighted_sum_matches_per_group(rng):
    """Values and both gradients equal the per-group products bit for bit."""
    for groups, n, d in [(4, 5, 3), (3, 1, 4), (2, 6, 1)]:
        wv = rng.standard_normal((groups, n))
        rv = rng.standard_normal((groups, n, d))
        w, rows = Tensor(wv, requires_grad=True), Tensor(rv, requires_grad=True)
        out = ad.group_weighted_sum(w, rows)
        assert out.shape == (groups, 1, d)
        dout = rng.standard_normal(out.shape)
        out._backward(dout)
        for g in range(groups):
            np.testing.assert_array_equal(out.value[g, 0], wv[g] @ rv[g])
            np.testing.assert_array_equal(w.grad[g], rv[g] @ dout[g, 0])
            np.testing.assert_array_equal(rows.grad[g], np.outer(wv[g], dout[g, 0]))


def test_softmax_uniform_rows():
    out = ad.softmax_rows(Tensor([[0.0, 0.0]])).value
    assert out[0, 0] == 0.5 and out[0, 1] == 0.5


def test_softmax_large_inputs_no_overflow():
    out = ad.softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]])).value
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)


def test_softmax_log_ratios():
    x = np.log([[1.0, 2.0, 3.0]])
    out = ad.softmax_rows(Tensor(x)).value
    np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], rtol=1e-14)


def test_l2_normalize_345():
    out, norm = ad.normalize_rows(np.array([[3.0, 4.0]]))
    assert out[0, 0] == 0.6 and out[0, 1] == 0.8
    assert norm[0, 0] == 5.0


def test_l2_normalize_zero_row_stays_zero():
    out, norm = ad.normalize_rows(np.zeros((1, 3)))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0]])
    assert norm[0, 0] == 0.0


def test_cross_entropy_uniform_binary():
    loss = ad.cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
    assert loss.value.item() == float(np.log(2.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_is_a_0d_loss(dtype):
    loss = ad.cross_entropy(Tensor(np.array([[0.0, 0.0], [1.0, -1.0]], dtype=dtype)),
                            np.array([0, 1]))
    assert loss.value.shape == () and loss.value.dtype == dtype
    assert float(loss.value) == loss.value.item() > 0.0
    # 0-d inputs stay 0-d, and a contiguous array is stored without a copy
    assert Tensor(np.float64(2.0)).value.shape == ()
    arr = np.ones((2, 3), dtype=np.float32)
    assert Tensor(arr).value is arr
    assert Tensor(arr.T).value.flags.c_contiguous


def test_layernorm_constant_row_maps_to_bias(rng):
    gain = Tensor(rng.standard_normal(4))
    bias = Tensor(rng.standard_normal(4))
    out = ad.layernorm_rows(Tensor([[7.0, 7.0, 7.0, 7.0]]), gain, bias).value
    np.testing.assert_allclose(out, bias.value[None, :], atol=1e-12)


def test_gelu_matches_the_closed_form():
    # the cube is x·x·x rather than x**3; the two differ in the last bit
    x = np.concatenate([np.linspace(-40.0, 40.0, 20001), [-1e3, -1e-8, 0.0, 1e-8, 1e3]])
    c = np.sqrt(2.0 / np.pi)
    want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
    got = ad.gelu(Tensor(x)).value
    assert (np.abs(got - want) <= 1e-15 * (1.0 + np.abs(x))).all()


# --------------------------------------------------------- analytic backward

def test_backward_linear_map(rng):
    a = rng.standard_normal((3, 4))
    x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    ad.backward(total(ad.matmul(Tensor(a), x)))
    # d sum(A x) / dx = A^T 1
    want = np.repeat(a.sum(axis=0)[:, None], 2, axis=1)
    np.testing.assert_allclose(x.grad, want, rtol=1e-12)


def test_backward_shared_operand(rng):
    # X used as both sides of a matmul: grads from both roles accumulate
    xv = rng.standard_normal((3, 3))
    x = Tensor(xv, requires_grad=True)
    ad.backward(total(ad.matmul(x, x)))
    ones = np.ones((3, 3))
    want = ones @ xv.T + xv.T @ ones
    np.testing.assert_allclose(x.grad, want, rtol=1e-12)


def test_backward_accumulates_across_branches(rng):
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    ad.backward(total(ad.add(x, x)))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_first_gradient_write_is_a_fresh_copy(rng):
    g = np.array([[-0.0, 1.5, -2.25]])
    t = Tensor(np.zeros((1, 3)), requires_grad=True)
    ad._accum(t, g)
    # g's bits, signed zero included, in an array of its own
    assert t.grad.tobytes() == g.tobytes()
    assert not np.shares_memory(t.grad, g)
    g[0, 1] = 7.0
    assert t.grad[0, 1] == 1.5
    # add hands the same dout to both parents; their grads stay apart
    a = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    ad.add(a, b)._backward(np.full((2, 2), -0.0))
    assert not np.shares_memory(a.grad, b.grad)
    assert np.signbit(a.grad).all() and np.signbit(b.grad).all()
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.zeros((2, 2)))


def test_add_hands_dout_to_its_first_operand(rng):
    # dout is the add node's own gradient: the second operand copies it (or
    # sums it) first, then the first operand keeps it as it is
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    dout = rng.standard_normal((2, 3))
    ad.add(a, b)._backward(dout)
    assert a.grad is dout
    assert not np.shares_memory(b.grad, dout)
    np.testing.assert_array_equal(b.grad, dout)
    # a summed first operand keeps its sum; the second still copies
    bias = Tensor(rng.standard_normal(3), requires_grad=True)
    c = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    dout = rng.standard_normal((2, 3))
    ad.add(bias, c)._backward(dout)
    assert not np.shares_memory(c.grad, dout) and not np.shares_memory(bias.grad, dout)
    np.testing.assert_array_equal(bias.grad, dout.sum(axis=0))
    # one tensor as both operands: its copy, then dout added in
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    dout = rng.standard_normal((2, 3))
    ad.add(x, x)._backward(dout.copy())
    assert_same_bits(x.grad, dout + dout)
    np.testing.assert_array_equal(x.grad, 2 * dout)


def test_handed_over_gradient_is_stored_itself():
    g = np.array([[-0.0, 1.5, -2.25]])
    want = g.copy()
    t = Tensor(np.zeros((1, 3)), requires_grad=True)
    ad._accum(t, g, own=True)
    assert t.grad is g and t.grad.tobytes() == want.tobytes()


def test_backward_releases_the_graph_and_keeps_leaf_grads(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    h = ad.matmul(x, w)
    y = ad.gelu(h)
    loss = total(ad.add(y, h))
    ad.backward(loss)
    for node in (h, y, loss):
        assert node._parents == () and node._backward is None and node.grad is None
    assert x.grad is not None and w.grad is not None
    assert x._parents == () and w._parents == ()


# op, operand shapes; memory_read reads four constant slots
RETAIN_CASES = {
    "add": (ad.add, [(2, 3, 4), (4,)]),
    "mean_rows": (ad.mean_rows, [(2, 3, 4)]),
    "concat_last_axis": (ad.concat_last_axis, [(2, 3, 4), (2, 3, 5)]),
    "reshape": (lambda x: ad.reshape(x, (6, 4)), [(2, 3, 4)]),
    "gelu": (ad.gelu, [(3, 4)]),
    "hopfield_update": (lambda z, m: ad.hopfield_update(z, m, Tensor(np.array(0.5))),
                        [(3, 4), (3, 4)]),
    "memory_read": (lambda z: ad.memory_read(z, np.eye(4), ad.read_keys(np.eye(4)),
                                             np.ones(4, dtype=bool))[1],
                    [(3, 4)]),
}


@pytest.mark.parametrize("name", sorted(RETAIN_CASES))
def test_graph_keeps_no_operand_value(rng, name):
    # a node holds its operands' nodes, never their values: once the caller
    # drops the operands and the output (a reshape views its operand), no
    # operand value survives, and backward still reaches every operand
    op, shapes = RETAIN_CASES[name]
    operands = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    refs = [weakref.ref(t.value) for t in operands]
    nodes = [t.node for t in operands]
    out = op(*operands)
    node, dout = out.node, rng.standard_normal(out.shape)
    del operands, out
    assert [r() for r in refs] == [None] * len(refs)
    node._backward(dout)
    assert [n.grad.shape for n in nodes] == shapes


# ------------------------------------------------------ in-place kernel bits
# gelu, layernorm_rows and memory_read's backward compute in reused buffers.
# The references below are the allocating expressions they replaced; values
# and gradients must match them bit for bit, signed zeros included; a first
# gradient write stores the gradient as built.

def edge_values(rng, shape, dtype, big):
    """Normal draws with ±0.0, ±1e-8 and ±big spread through them."""
    v = rng.standard_normal(shape)
    flat = v.reshape(-1)
    special = np.array([0.0, -0.0, 1e-8, -1e-8, big, -big])
    picks = rng.choice(flat.size, size=2 * special.size, replace=False)
    flat[picks] = np.tile(special, 2)
    return v.astype(dtype)


def reference_gelu(xv, dout):
    c = math.sqrt(2.0 / math.pi)
    inner = c * (xv + 0.044715 * (xv * xv * xv))
    t = np.tanh(inner)
    out = 0.5 * xv * (1.0 + t)
    dinner = c * (1.0 + 3 * 0.044715 * xv ** 2)
    return out, dout * (0.5 * (1.0 + t) + 0.5 * xv * (1.0 - t ** 2) * dinner)


def reference_layernorm(xv, gv, bv, dout):
    d = xv.shape[-1]
    mu = xv.mean(axis=-1, keepdims=True)
    var = ((xv - mu) ** 2).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + 1e-5)
    xhat = (xv - mu) / s
    out = xhat * gv + bv
    dgain = (dout * xhat).reshape(-1, d).sum(axis=0)
    dbias = dout.reshape(-1, d).sum(axis=0)
    dxhat = dout * gv
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return out, dgain, dbias, (dxhat - m1 - xhat * m2) / s


def reference_memory_read(zv, slots, mask, dout):
    d, k = zv.shape[-1], slots.shape[0]

    def unit(x):
        norm = np.sqrt((x ** 2).sum(axis=-1, keepdims=True))
        return x / np.maximum(norm, 1e-12), norm

    zhat, znorm = unit(zv)
    keys_t = np.ascontiguousarray((unit(slots)[0] * math.sqrt(d)).T)
    logits = np.matmul(zhat, keys_t)
    logits[..., ~mask] = -np.inf
    e = np.exp(logits)
    s = e.sum(axis=-1, keepdims=True)
    alpha = e / s
    # normalized after the mix
    m = np.matmul(e, slots) / s
    d2, zhat2, znorm2 = dout.reshape(-1, d), zhat.reshape(-1, d), znorm.reshape(-1, 1)
    # Σₖ αₖ·dαₖ as dout·m; the unnormalized weights' product divided by s
    inner = (d2 * m.reshape(-1, d)).sum(axis=1, keepdims=True)
    dlogits = e.reshape(-1, k) * (d2 @ slots.T - inner)
    dzhat = (dlogits @ keys_t.T) / s.reshape(-1, 1)
    inner = (dzhat * zhat2).sum(axis=1, keepdims=True)
    dz = (dzhat - zhat2 * np.where(znorm2 > 1e-12, inner, 0.0)) / np.maximum(znorm2, 1e-12)
    return alpha, m, dz.reshape(zv.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_keeps_the_bits_of_the_allocating_form(rng, dtype):
    xv = edge_values(rng, (3, 7, 16), dtype, big=1e3)
    dout = edge_values(rng, xv.shape, dtype, big=1e3)
    x = Tensor(xv.copy(), requires_grad=True)
    out = ad.gelu(x)
    out._backward(dout)
    want_out, want_dx = reference_gelu(xv, dout)
    assert want_out.dtype == dtype and want_dx.dtype == dtype
    assert_same_bits(out.value, want_out)
    assert_same_bits(x.grad, want_dx)
    assert_same_bits(x.value, xv)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layernorm_keeps_the_bits_of_the_allocating_form(rng, dtype):
    xv = edge_values(rng, (3, 7, 16), dtype, big=1e6)
    xv[0, 0] = 0.0  # a constant row: var 0, s = √ε
    xv[0, 1] = np.array([1e-8, -1e-8] * 8, dtype=dtype)
    gv = edge_values(rng, (16,), dtype, big=1e3)
    bv = edge_values(rng, (16,), dtype, big=1e3)
    dout = edge_values(rng, xv.shape, dtype, big=1e3)
    x, gain, bias = (Tensor(v.copy(), requires_grad=True) for v in (xv, gv, bv))
    out = ad.layernorm_rows(x, gain, bias)
    out._backward(dout)
    want_out, want_dgain, want_dbias, want_dx = reference_layernorm(xv, gv, bv, dout)
    assert want_out.dtype == dtype and want_dx.dtype == dtype
    assert_same_bits(out.value, want_out)
    assert_same_bits(gain.grad, want_dgain)
    assert_same_bits(bias.grad, want_dbias)
    assert_same_bits(x.grad, want_dx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_memory_read_backward_keeps_the_bits_of_the_allocating_form(rng, dtype):
    zv = edge_values(rng, (2, 9, 8), dtype, big=1e3)
    zv[0, 0] = 0.0  # zero query: the ε branch of the norm
    zv[1, 2] = np.array([1e-8, -1e-8] * 4, dtype=dtype)
    slots = edge_values(rng, (12, 8), dtype, big=1e3)
    slots[3] = 0.0
    mask = np.ones(12, dtype=bool)
    mask[[1, 5, 6]] = False
    dout = edge_values(rng, zv.shape, dtype, big=1e3)
    z = Tensor(zv.copy(), requires_grad=True)
    alpha, m = ad.memory_read(z, slots, ad.read_keys(slots), mask)
    m._backward(dout)
    want_alpha, want_m, want_dz = reference_memory_read(zv, slots, mask, dout)
    assert want_dz.dtype == dtype
    assert_same_bits(alpha.value, want_alpha)
    assert_same_bits(m.value, want_m)
    assert_same_bits(z.grad, want_dz)


def test_stacked_read_weights_are_the_reads_weights_in_order(rng):
    # a chunk's lanes read separately; their stacked weights must be the
    # rows of each read's alpha, in lane order, and share each read's e
    slots = rng.standard_normal((12, 8)).astype(np.float32)
    mask = np.ones(12, dtype=bool)
    mask[[2, 7]] = False
    keys = ad.read_keys(slots)
    reads = [ad.memory_read(rng.standard_normal((n, 9, 8)).astype(np.float32), slots, keys,
                            mask)[0]
             for n in (3, 1, 2)]
    stacked = ad.ReadWeights.stack(reads)
    assert stacked.shape == (6, 9, 12)
    assert_same_bits(stacked.value, np.concatenate([r.value for r in reads]))
    assert all(e is r._e for (e, _), r in zip(stacked._parts(), reads))


# The fused ops replaced a graph of separate nodes: matmul(a, w, bias) the
# add of a bias to a matmul, and unfold_matmul also the unfold before it.
# Values and gradients must keep that graph's bits: the matmul node's
# gradient was the add's first write of dout, and dU the matmul's.

def reference_unfold_matmul(xv, grid, k, wv, bv, dout):
    from hmn.kernels import unfold_grid, unfold_grid_bwd
    n = wv.shape[1]
    u = unfold_grid(xv.reshape(grid), k)
    out = np.matmul(u, wv) + bv
    d2 = dout.reshape(-1, n)
    du = (d2 @ wv.T).reshape(u.shape)
    dx = unfold_grid_bwd(du, grid, k).reshape(xv.shape)
    return out, dx, u.reshape(-1, wv.shape[0]).T @ d2, dout.reshape(-1, n).sum(axis=0)


LEADS = [(3,), (1,), ()]  # G=3, G=1 and a plain (h·w, D) grid


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unfold_matmul_keeps_the_bits_of_the_separate_ops(rng, dtype, lead):
    h, w, d, k, n = 4, 5, 6, 3, 12
    grid = (*lead, h, w, d)
    xv = edge_values(rng, (*lead, h * w, d), dtype, big=1e3)
    wv = edge_values(rng, (k * k * d, n), dtype, big=1e3)
    bv = edge_values(rng, (n,), dtype, big=1e3)
    dout = edge_values(rng, (*lead, h * w, n), dtype, big=1e3)
    x, weight, bias = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, bv))
    out = ad.unfold_matmul(x, h, w, k, weight, bias)
    out._backward(dout.copy())
    want_out, want_dx, want_dw, want_db = reference_unfold_matmul(xv, grid, k, wv, bv, dout)
    assert want_out.dtype == dtype and want_dx.dtype == dtype
    assert_same_bits(out.value, want_out)
    assert_same_bits(x.grad, want_dx)
    assert_same_bits(weight.grad, want_dw)
    assert_same_bits(bias.grad, want_db)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_bias_keeps_the_bits_of_a_separate_add(rng, dtype, lead):
    m, kk, n = 9, 6, 12
    av = edge_values(rng, (*lead, m, kk), dtype, big=1e3)
    wv = edge_values(rng, (kk, n), dtype, big=1e3)
    bv = edge_values(rng, (n,), dtype, big=1e3)
    dout = edge_values(rng, (*lead, m, n), dtype, big=1e3)
    a, weight, bias = (Tensor(v.copy(), requires_grad=True) for v in (av, wv, bv))
    out = ad.matmul(a, weight, bias)
    out._backward(dout.copy())
    d2 = dout.reshape(-1, n)
    assert_same_bits(out.value, np.matmul(av, wv) + bv)
    assert_same_bits(a.grad, (d2 @ wv.T).reshape(av.shape))
    assert_same_bits(weight.grad, av.reshape(-1, kk).T @ d2)
    assert_same_bits(bias.grad, dout.reshape(-1, n).sum(axis=0))


# ----------------------------------------------------------------- FD per op

def test_fd_matmul(rng):
    a = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal((3, 5)))
    proj = Tensor(rng.standard_normal((5, 1)))
    fd_check(lambda: scalarize(ad.matmul(a, b), proj), [a, b])


def test_fd_matmul_grouped(rng):
    a = Tensor(rng.standard_normal((2, 3, 3)))
    b = Tensor(rng.standard_normal((3, 4)))
    bias = Tensor(rng.standard_normal(4))
    proj = Tensor(rng.standard_normal((4, 1)))
    fd_check(lambda: scalarize(ad.matmul(a, b), proj), [a, b])
    fd_check(lambda: scalarize(ad.matmul(a, b, bias), proj), [a, b, bias])


def test_fd_group_weighted_sum(rng):
    w = Tensor(rng.standard_normal((2, 3)))
    rows = Tensor(rng.standard_normal((2, 3, 4)))
    proj = Tensor(rng.standard_normal((4, 1)))
    fd_check(lambda: scalarize(ad.group_weighted_sum(w, rows), proj), [w, rows])


def test_fd_elementwise_ops(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)))
    s = Tensor(np.array(0.7))
    s1 = Tensor(np.array([-0.4]))
    x = Tensor(rng.standard_normal((2, 3, 4)))
    bias = Tensor(rng.standard_normal(4))
    proj = Tensor(rng.standard_normal((4, 1)))

    fd_check(lambda: scalarize(ad.add(a, b), proj), [a, b])
    fd_check(lambda: scalarize(ad.hopfield_update(a, b, s), proj), [a, b, s])
    fd_check(lambda: scalarize(ad.hopfield_update(a, b, s1), proj), [a, b, s1])
    fd_check(lambda: scalarize(ad.hopfield_update(a, a, s), proj), [a, s])
    # a (D,) bias on (R, D) rows and on (B, N, D) tokens
    fd_check(lambda: scalarize(ad.add(a, bias), proj), [a, bias])
    fd_check(lambda: scalarize(ad.add(x, bias), proj), [x, bias])


def test_add_broadcast_gradients_are_the_explicit_reductions(rng):
    """add's gradient for each broadcast operand is, bit for bit, one fixed
    sum: a (D,) bias sums reshape(-1, D) over axis 0, an (N, D) table sums
    over images, a (B, 1, D) addend sums over tokens; other orders round
    differently in float32."""
    b, n, d = 64, 49, 8
    dout = rng.standard_normal((b, n, d)).astype(np.float32)
    cases = [((d,), dout.reshape(-1, d).sum(axis=0), dout.sum(axis=1).sum(axis=0)),
             ((n, d), dout.sum(axis=0), dout.reshape(4, -1, n, d).sum(axis=1).sum(axis=0)),
             ((b, 1, d), dout.sum(axis=1, keepdims=True),
              dout.reshape(b, 7, -1, d).sum(axis=2).sum(axis=1, keepdims=True))]
    for shape, want, other in cases:
        for swap in (False, True):
            x = Tensor(rng.standard_normal((b, n, d)).astype(np.float32), requires_grad=True)
            y = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
            out = ad.add(y, x) if swap else ad.add(x, y)
            np.testing.assert_array_equal(out.value, x.value + y.value)
            out._backward(dout)
            np.testing.assert_array_equal(x.grad, dout)
            assert y.grad.dtype == np.float32 and y.grad.shape == shape
            np.testing.assert_array_equal(y.grad, want)
        assert not np.array_equal(want, other), shape


def test_fd_gelu(rng):
    x = Tensor(rng.standard_normal((3, 5)) * 2.0)
    proj = Tensor(rng.standard_normal((5, 1)))
    fd_check(lambda: scalarize(ad.gelu(x), proj), [x])


def test_fd_softmax(rng):
    x = Tensor(rng.standard_normal((4, 6)))
    proj = Tensor(rng.standard_normal((6, 1)))
    fd_check(lambda: scalarize(ad.softmax_rows(x), proj), [x])


def partly_filled_bank(rng, dim=3):
    bank = MemoryBank(3, 9, dim)
    bank.write(rng.standard_normal((5, dim)), [0, 2, 0, 2, 0])
    return bank


def test_fd_memory_read(rng):
    slots, _, mask = partly_filled_bank(rng).filled_view()
    assert mask.any() and not mask.all()
    z = Tensor(rng.standard_normal((2, 2, 3)))
    proj = Tensor(rng.standard_normal((3, 1)))
    keys = ad.read_keys(slots)
    fd_check(lambda: scalarize(ad.memory_read(z, slots, keys, mask)[1], proj), [z])


def test_hopfield_update_backward_keeps_the_graph_order(rng):
    """z.grad adds dout, then m's β·dout (m may be z), then −β·dout, bit for bit
    as the add/scale/sub graph the op replaces did; other orders round differently."""
    z = Tensor(rng.standard_normal((50, 8)), requires_grad=True)
    beta = Tensor(np.array(0.37), requires_grad=True)
    dout = rng.standard_normal((50, 8))
    ad.hopfield_update(z, z, beta)._backward(dout)
    g = 0.37 * dout
    np.testing.assert_array_equal(z.grad, (dout + g) - g)
    assert not np.array_equal(z.grad, (dout - g) + g)
    assert beta.grad == 0.0


@pytest.mark.parametrize("case", ["m", "m is z", "z constant"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hopfield_update_keeps_the_bits_of_the_allocating_form(rng, dtype, case):
    zv = edge_values(rng, (3, 7, 8), dtype, big=1e3)
    mv = zv if case == "m is z" else edge_values(rng, zv.shape, dtype, big=1e3)
    dout = edge_values(rng, zv.shape, dtype, big=1e3)
    z = Tensor(zv.copy(), requires_grad=case != "z constant")
    m = z if case == "m is z" else Tensor(mv.copy(), requires_grad=True)
    beta = Tensor(np.array(0.37, dtype=dtype), requires_grad=True)
    out = ad.hopfield_update(z, m, beta)
    out._backward(dout.copy())
    bv = float(beta.value.reshape(()))
    diff = mv - zv
    g = bv * dout
    assert_same_bits(out.value, zv + bv * diff)
    assert_same_bits(z.value, zv)
    assert_same_bits(beta.grad, np.sum(dout * diff).reshape(beta.value.shape))
    if case == "m is z":
        assert_same_bits(z.grad, (dout + g) + -g)
    else:
        assert_same_bits(m.grad, g)
    if case == "m":
        assert_same_bits(z.grad, dout + -g)
    if case == "z constant":
        assert z.grad is None


def test_fd_layernorm(rng):
    x = Tensor(rng.standard_normal((3, 6)))
    gain = Tensor(rng.standard_normal(6))
    bias = Tensor(rng.standard_normal(6))
    proj = Tensor(rng.standard_normal((6, 1)))
    fd_check(lambda: scalarize(ad.layernorm_rows(x, gain, bias), proj), [x, gain, bias])


def test_fd_row_shaping_ops(rng):
    x = Tensor(rng.standard_normal((6, 3)))
    x3 = Tensor(rng.standard_normal((2, 3, 3)))
    table = Tensor(rng.standard_normal((3, 3)))
    proj = Tensor(rng.standard_normal((3, 1)))
    proj6 = Tensor(rng.standard_normal((6, 1)))

    fd_check(lambda: scalarize(ad.mean_rows(x3), proj), [x3])
    # a (B, 1, D) per-image addend broadcast over tokens, and an (N, D) table over images
    fd_check(lambda: scalarize(ad.add(x3, ad.mean_rows(x3)), proj), [x3])
    fd_check(lambda: scalarize(ad.add(x3, table), proj), [x3, table])
    fd_check(lambda: scalarize(ad.concat_last_axis(x, x), proj6), [x])
    fd_check(lambda: scalarize(ad.reshape(x, (3, 6)), proj6), [x])


def test_fd_unfold(rng):
    grid = Tensor(rng.standard_normal((4 * 3, 2)))  # one 4x3 grid
    weight = Tensor(rng.standard_normal((9 * 2, 3)))
    bias = Tensor(rng.standard_normal(3))
    proj = Tensor(rng.standard_normal((3, 1)))
    # the loss is linear in each operand, so a wide step adds no truncation
    # error and keeps round-off off the small weight gradients
    fd_check(lambda: scalarize(ad.unfold_matmul(grid, 4, 3, 3, weight, bias), proj),
             [grid, weight, bias], step=1e-4)


def test_fd_unfold_matmul(rng):
    x = Tensor(rng.standard_normal((2, 6, 2)))  # two 2x3 grids stacked
    weight = Tensor(rng.standard_normal((9 * 2, 3)))
    bias = Tensor(rng.standard_normal(3))
    proj = Tensor(rng.standard_normal((3, 1)))
    fd_check(lambda: scalarize(ad.unfold_matmul(x, 2, 3, 3, weight, bias), proj),
             [x, weight, bias], step=1e-4)


def test_fd_cross_entropy(rng):
    logits = Tensor(rng.standard_normal((5, 4)))
    labels = np.array([0, 3, 1, 1, 2])
    fd_check(lambda: ad.cross_entropy(logits, labels), [logits])


# ------------------------------------------------------- masked memory read

def test_masked_softmax_exact_zeros_and_renormalization(rng):
    """Unfilled slots get weight exactly 0; filled ones the dense softmax over them."""
    bank = partly_filled_bank(rng, dim=4)
    slots, _, mask = bank.filled_view()
    z = rng.standard_normal((6, 4))
    alpha, m = retrieve_rows(Tensor(z.reshape(3, 2, 4)), bank)
    out = alpha.value.reshape(6, -1)
    assert (out[:, ~mask] == 0.0).all()
    logits = 2.0 * ad.normalize_rows(z)[0] @ ad.normalize_rows(slots[mask])[0].T
    dense = ad.softmax_rows(Tensor(logits)).value
    np.testing.assert_allclose(out[:, mask], dense, rtol=1e-14)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6), rtol=1e-14)
    np.testing.assert_allclose(m.value.reshape(6, 4), dense @ slots[mask], rtol=1e-13)


def test_all_true_mask_is_the_unmasked_softmax(rng):
    """With every slot kept, alpha is exp of the scaled cosine logits over its
    row sum, bit for bit, and softmax_rows of them up to rounding."""
    slots = rng.standard_normal((7, 4))
    z = rng.standard_normal((5, 4))
    alpha, _ = ad.memory_read(Tensor(z), slots, ad.read_keys(slots), np.ones(7, dtype=bool))
    zhat, khat = ad.normalize_rows(z)[0], ad.normalize_rows(slots)[0]
    logits = np.matmul(zhat[None], np.ascontiguousarray((khat * math.sqrt(4)).T))[0]
    e = np.exp(logits)
    np.testing.assert_array_equal(alpha.value, e / e.sum(axis=-1, keepdims=True))
    np.testing.assert_allclose(alpha.value, ad.softmax_rows(Tensor(logits)).value, rtol=1e-14)


def test_float32_read_at_the_widest_d_the_config_allows(rng):
    """The softmax has no max pass and divides after the mix: at the largest
    d_lat that RunConfig takes for K slots, logits of ±√D and slot components
    near 1e3 still give finite weights that sum to 1, a finite read-out and a
    finite gradient."""
    k = 12
    d = math.floor((60.0 - math.log(k)) ** 2)
    while math.sqrt(d) + math.log(k) >= 60.0:
        d -= 1
    RunConfig(d_lat=d, k_local=k, k_global=k)
    with pytest.raises(ValueError, match="too wide"):
        RunConfig(d_lat=d + 1, k_local=k, k_global=k)
    # near-parallel slots: a query equal to one has logit ≈√D at every
    # slot, the sum's worst case; its negation has ≈−√D everywhere
    base = rng.standard_normal(d)
    slots = (1e3 * (base + 1e-3 * rng.standard_normal((k, d)))).astype(np.float32)
    z = np.stack([slots[0], -slots[0], rng.standard_normal(d)]).astype(np.float32)
    mask = np.ones(k, dtype=bool)
    mask[[2, 7, 11]] = False
    zt = Tensor(z, requires_grad=True)
    weights, m = ad.memory_read(zt, slots, ad.read_keys(slots), mask)
    a = weights.value
    assert a.dtype == np.float32 and np.isfinite(a).all() and np.isfinite(m.value).all()
    assert (a[:, ~mask] == 0.0).all() and (a[:, mask] > 0.0).all()
    np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=1e-6)
    m._backward(rng.standard_normal(z.shape).astype(np.float32))
    assert zt.grad.dtype == np.float32 and np.isfinite(zt.grad).all()
    # past the old bound of 88 the row sum overflows, and the read says so
    wide = math.floor((88.9 - math.log(k)) ** 2)
    slots = (rng.standard_normal(wide) + 1e-3 * rng.standard_normal((k, wide))).astype(np.float32)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="memory_read"):
        ad.memory_read(Tensor(slots[:1]), slots, ad.read_keys(slots), np.ones(k, dtype=bool))


def test_fully_masked_row_rejected(rng):
    z = Tensor(rng.standard_normal((2, 3)))
    slots = rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        ad.memory_read(z, slots, ad.read_keys(slots), np.zeros(3, dtype=bool))


# -------------------------------------------------------------- error paths

def test_backward_requires_scalar(rng):
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.add(x, x))


def test_double_backward_rejected(rng):
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    loss = total(x)
    ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.backward(loss)


def test_second_root_over_a_walked_graph_rejected(rng):
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    y = ad.gelu(ad.add(x, x))
    ad.backward(total(y))
    first = x.grad.copy()
    with pytest.raises(RuntimeError):
        ad.backward(total(y))
    # the rejected walk ran no backward closure
    np.testing.assert_array_equal(x.grad, first)


def test_nan_input_trips_finite_check():
    bad = Tensor(np.array([[np.nan, 1.0]]))
    with pytest.raises(FloatingPointError):
        ad.add(bad, Tensor(np.zeros((1, 2))))


def test_overflow_trips_finite_check():
    big = Tensor(np.array([[1e200]]))
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            ad.matmul(big, big)


def test_shape_validation_errors(rng):
    a = Tensor(rng.standard_normal((2, 3)))
    with pytest.raises(ValueError):
        ad.matmul(a, Tensor(rng.standard_normal((4, 2))))
    with pytest.raises(ValueError):
        ad.matmul(Tensor(rng.standard_normal((2, 5, 2))), Tensor(rng.standard_normal((3, 2))))
    with pytest.raises(ValueError):
        ad.add(a, Tensor(rng.standard_normal((3, 2))))
    with pytest.raises(ValueError):
        ad.hopfield_update(a, a, Tensor(rng.standard_normal(3)))
    with pytest.raises(ValueError):
        ad.hopfield_update(a, Tensor(rng.standard_normal((3, 2))), Tensor(np.array(0.5)))
    z, slots = Tensor(rng.standard_normal((2, 5, 3))), rng.standard_normal((4, 2))
    with pytest.raises(ValueError):
        ad.memory_read(z, slots, ad.read_keys(slots), np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        ad.add(a, Tensor(rng.standard_normal(2)))
    with pytest.raises(ValueError):
        ad.group_weighted_sum(Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((2, 4, 3))))
    with pytest.raises(ValueError):
        ad.matmul(a, Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal(3)))
    with pytest.raises(ValueError):
        ad.matmul(a, Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((1, 4))))
    weight, bias = Tensor(rng.standard_normal((27, 4))), Tensor(rng.standard_normal(4))
    with pytest.raises(ValueError):
        ad.unfold_matmul(Tensor(rng.standard_normal((2, 5, 3))), 2, 3, 3, weight, bias)
    with pytest.raises(ValueError):
        ad.unfold_matmul(Tensor(rng.standard_normal((2, 6, 3))), 2, 3, 3,
                         Tensor(rng.standard_normal((18, 4))), bias)
    with pytest.raises(ValueError):
        ad.unfold_matmul(Tensor(rng.standard_normal((2, 6, 3))), 2, 3, 3, weight,
                         Tensor(rng.standard_normal(3)))
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(rng.standard_normal((2, 3))), np.array([0, 3]))
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(rng.standard_normal((2, 3))), np.array([0]))


# ------------------------------------------------------------ no_grad scope

def test_no_grad_records_no_graph(rng):
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 3)))
    with ad.no_grad():
        out = ad.gelu(ad.matmul(x, w))
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    # the same ops outside the scope build a graph with the same values
    again = ad.gelu(ad.matmul(x, w))
    assert again.requires_grad and again._parents
    np.testing.assert_array_equal(out.value, again.value)


def test_no_grad_still_checks_finiteness():
    with ad.no_grad():
        with pytest.raises(FloatingPointError):
            ad.add(Tensor(np.array([[np.inf, 1.0]])), Tensor(np.zeros((1, 2))))


def test_no_grad_restores_the_flag(rng):
    w = Tensor(rng.standard_normal((2, 2)), requires_grad=True)

    def records():
        return ad.add(w, w).requires_grad

    with ad.no_grad():
        with ad.no_grad():
            assert not records()
        assert not records()
    assert records()
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("boom")
    assert records()


# ------------------------------------------------------- hypothesis sanity

@settings(deadline=None, max_examples=40)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(-50, 50)))
def test_softmax_rows_sum_to_one(x):
    out = ad.softmax_rows(Tensor(x)).value
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(x.shape[0]), rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(-50, 50)),
       st.floats(-100, 100))
def test_softmax_shift_invariance(x, shift):
    a = ad.softmax_rows(Tensor(x)).value
    b = ad.softmax_rows(Tensor(x + shift)).value
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)))
def test_l2_normalized_rows_have_unit_or_zero_norm(x):
    out, _ = ad.normalize_rows(x)
    norms = np.sqrt((out ** 2).sum(axis=1))
    src = np.sqrt((x ** 2).sum(axis=1))
    for n, s in zip(norms, src):
        if s > 1e-12:
            assert abs(n - 1.0) < 1e-9
        else:
            assert n <= 1.0


# ------------------------------------------------------------- op inventory

def test_every_public_op_has_a_caller_in_the_package():
    """No op exists only for tests: each public function that builds a node
    (calls _node) is called as ad.<op> somewhere in src/hmn outside autodiff.py."""
    pkg = pathlib.Path(ad.__file__).parent
    tree = ast.parse((pkg / "autodiff.py").read_text(encoding="utf-8"))
    ops = {f.name for f in tree.body
           if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
           and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_node"
                   for n in ast.walk(f))}
    called = set()
    for path in sorted(pkg.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and isinstance(n.func.value, ast.Name) and n.func.value.id == "ad"):
                called.add(n.func.attr)
    assert {"matmul", "memory_read", "hopfield_update"} <= ops
    assert sorted(ops - called) == []


# ----------------------------------------------- the package's own FD tools

def test_fd_gradient_quadratic(rng):
    x = rng.standard_normal(5)
    g = ad.fd_gradient(lambda v: float((v ** 2).sum()), x.copy(), step=1e-6)
    np.testing.assert_allclose(g, 2 * x, atol=1e-8)


def test_max_rel_err_arithmetic():
    got = ad.max_rel_err(np.array([1.0, 2.0]), np.array([1.0, 2.2]))
    np.testing.assert_allclose(got, 0.2 / 2.2, rtol=1e-12)
    assert ad.max_rel_err(np.zeros(3), np.zeros(3)) == 0.0


def test_check_gradients_passes_composite(rng):
    x = Tensor(rng.standard_normal((3, 4)))
    w = Tensor(rng.standard_normal((4, 2)))

    def build():
        return ad.cross_entropy(ad.matmul(ad.gelu(x), w), np.array([0, 1, 0]))

    assert ad.check_gradients(build, [x, w], step=1e-6) < 1e-6


def test_check_gradients_flags_wrong_backward(rng):
    x = Tensor(rng.standard_normal((2, 2)))

    def build():
        # doubled forward with a deliberately wrong pullback (3x instead of 2x)
        bad = ad._node(x.value * 2.0, (x,), lambda dout: ad._accum(x, 3.0 * dout), "bad")
        return total(bad)

    assert ad.check_gradients(build, [x]) > 0.2
