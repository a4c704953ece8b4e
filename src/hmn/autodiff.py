"""Reverse-mode autodiff over float64 numpy arrays.

Just enough ops to express the model: grouped matmul, masked row softmax,
row L2 normalization, neighborhood unfold, layernorm, gelu, cross entropy,
and the small glue ops (concat, reshape, row broadcast/reduce). Values are
checked finite after every op. Matmuls whose left operand stacks rows from
several images execute one GEMM per image group, so an image's activations
never depend on what else is in the batch, down to the last bit. Inside a
``no_grad()`` scope ops still compute and check their values but record no
graph, so inference holds no activations beyond the ones still referenced.
"""

import contextlib

import numpy as np

from . import kernels

_FINITE_MSG = "{} produced non-finite values"

# read by _node; off inside a no_grad() scope
_recording = True


@contextlib.contextmanager
def no_grad():
    """Scope in which op outputs keep no parents and no backward closure."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


def _finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(_FINITE_MSG.format(name))
    return arr


class Tensor:
    """A float64 array plus the graph edge that produced it."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, value, requires_grad=False):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self):
        return self.value.shape

    def detach(self):
        return Tensor(self.value)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.value.shape}{flag})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(value, parents, bwd, name):
    out = Tensor(_finite(name, value))
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = bwd
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    t.grad += g


def backward(loss):
    """Backpropagate from a scalar loss, accumulating into .grad additively.

    A graph can be walked once; a second call on the same loss raises.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    if loss._consumed:
        raise RuntimeError("backward already called on this graph; rebuild it before differentiating again")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
        node._consumed = True


def zero_grad(tensors):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------- linear maps

def matmul(a, b, groups=1):
    """C = A·B with A's rows split into equal groups, one GEMM per group.

    The right operand is shared across groups. groups must divide A's row
    count; model code passes one group per image.
    """
    a, b = as_tensor(a), as_tensor(b)
    m, ka = a.value.shape
    kb, n = b.value.shape
    if ka != kb:
        raise ValueError(f"matmul inner dims disagree: {a.value.shape} vs {b.value.shape}")
    if m % groups != 0:
        raise ValueError(f"{groups} groups do not divide {m} rows")
    gs = m // groups
    out = np.empty((m, n), dtype=np.float64)
    for g in range(groups):
        s = slice(g * gs, (g + 1) * gs)
        out[s] = a.value[s] @ b.value
    av, bv = a.value, b.value

    def bwd(dout):
        if a.requires_grad:
            da = np.empty_like(av)
            for g in range(groups):
                s = slice(g * gs, (g + 1) * gs)
                da[s] = dout[s] @ bv.T
            _accum(a, da)
        if b.requires_grad:
            db = np.zeros_like(bv)
            for g in range(groups):
                s = slice(g * gs, (g + 1) * gs)
                db += av[s].T @ dout[s]
            _accum(b, db)

    return _node(out, (a, b), bwd, "matmul")


def group_weighted_sum(weights, rows, groups):
    """out[g] = weights[g] · rows[g·n:(g+1)·n] for per-group row mixing.

    weights: (G, n); rows: (G·n, D). Unlike matmul, both operands vary by
    group, which is what attention pooling needs.
    """
    weights, rows = as_tensor(weights), as_tensor(rows)
    gcount, n = weights.value.shape
    if gcount != groups:
        raise ValueError(f"weights rows {gcount} != groups {groups}")
    total, d = rows.value.shape
    if total != groups * n:
        raise ValueError(f"rows {total} != groups*{n}")
    out = np.empty((groups, d), dtype=np.float64)
    for g in range(groups):
        out[g] = weights.value[g] @ rows.value[g * n:(g + 1) * n]
    wv, rv = weights.value, rows.value

    def bwd(dout):
        if weights.requires_grad:
            dw = np.empty_like(wv)
            for g in range(groups):
                dw[g] = rv[g * n:(g + 1) * n] @ dout[g]
            _accum(weights, dw)
        if rows.requires_grad:
            dr = np.empty_like(rv)
            for g in range(groups):
                dr[g * n:(g + 1) * n] = np.outer(wv[g], dout[g])
            _accum(rows, dr)

    return _node(out, (weights, rows), bwd, "group_weighted_sum")


# ---------------------------------------------------------------- elementwise

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shapes disagree: {a.value.shape} vs {b.value.shape}")

    def bwd(dout):
        _accum(a, dout)
        _accum(b, dout)

    return _node(a.value + b.value, (a, b), bwd, "add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"sub shapes disagree: {a.value.shape} vs {b.value.shape}")

    def bwd(dout):
        _accum(a, dout)
        _accum(b, -dout)

    return _node(a.value - b.value, (a, b), bwd, "sub")


def scalar_mul(a, c):
    a = as_tensor(a)
    c = float(c)

    def bwd(dout):
        _accum(a, c * dout)

    return _node(c * a.value, (a,), bwd, "scalar_mul")


def scale(a, s):
    """a scaled by a learnable scalar tensor s (shape () or (1,))."""
    a, s = as_tensor(a), as_tensor(s)
    if s.value.size != 1:
        raise ValueError(f"scale expects a scalar tensor, got shape {s.value.shape}")
    sv = float(s.value.reshape(()))

    def bwd(dout):
        _accum(a, sv * dout)
        if s.requires_grad:
            _accum(s, np.sum(dout * a.value).reshape(s.value.shape))

    return _node(sv * a.value, (a, s), bwd, "scale")


def add_bias(x, b):
    """Add a (D,) bias to every row of (R, D) x."""
    x, b = as_tensor(x), as_tensor(b)
    if x.value.ndim != 2 or b.value.shape != (x.value.shape[1],):
        raise ValueError(f"bias shape {b.value.shape} does not fit rows of {x.value.shape}")

    def bwd(dout):
        _accum(x, dout)
        if b.requires_grad:
            _accum(b, dout.sum(axis=0))

    return _node(x.value + b.value, (x, b), bwd, "add_bias")


def gelu(x):
    """tanh-form gelu: 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))."""
    x = as_tensor(x)
    c = np.sqrt(2.0 / np.pi)
    xv = x.value
    # xv ** 3 would take the slow general pow path
    inner = c * (xv + 0.044715 * (xv * xv * xv))
    t = np.tanh(inner)
    out = 0.5 * xv * (1.0 + t)

    def bwd(dout):
        dinner = c * (1.0 + 3 * 0.044715 * xv ** 2)
        _accum(x, dout * (0.5 * (1.0 + t) + 0.5 * xv * (1.0 - t ** 2) * dinner))

    return _node(out, (x,), bwd, "gelu")


# ---------------------------------------------------------------- row ops

def softmax_rows(x, mask=None):
    """Row softmax with max-subtraction; optional boolean keep-mask.

    mask may be (c,) shared across rows or (r, c). Masked positions get
    weight exactly 0 and contribute nothing to the normalizer. A row with
    no unmasked position is an error.
    """
    x = as_tensor(x)
    xv = x.value
    if xv.ndim != 2 or xv.shape[1] < 1:
        raise ValueError(f"softmax_rows expects a nonempty 2-D input, got {xv.shape}")
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        mask = np.broadcast_to(keep, xv.shape)
        if keep.all():
            mask = None  # an all-true mask is the plain softmax, bit for bit
    if mask is not None:
        if not mask.any(axis=1).all():
            raise ValueError("softmax_rows: fully-masked row")
        shifted = np.where(mask, xv, -np.inf)
        mx = shifted.max(axis=1, keepdims=True)
        e = np.where(mask, np.exp(np.where(mask, xv - mx, 0.0)), 0.0)
    else:
        mx = xv.max(axis=1, keepdims=True)
        e = np.exp(xv - mx)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(dout):
        # dx_j = a_j·(dout_j − Σ_t dout_t·a_t); masked entries have a_j = 0
        inner = (dout * out).sum(axis=1, keepdims=True)
        _accum(x, out * (dout - inner))

    return _node(out, (x,), bwd, "softmax_rows")


def l2_normalize_rows(x, eps=1e-12):
    """Each row divided by max(‖row‖, eps), so zero rows stay zero."""
    x = as_tensor(x)
    xv = x.value
    norm = np.sqrt((xv ** 2).sum(axis=1, keepdims=True))
    denom = np.maximum(norm, eps)
    out = xv / denom
    big = norm > eps

    def bwd(dout):
        inner = (dout * out).sum(axis=1, keepdims=True)
        dx = np.where(big, (dout - out * inner) / denom, dout / denom)
        _accum(x, dx)

    return _node(out, (x,), bwd, "l2_normalize_rows")


def layernorm_rows(x, gain, bias, eps=1e-5):
    """Per-row standardization with learnable per-feature affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xv = x.value
    d = xv.shape[1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ValueError("layernorm affine shape mismatch")
    mu = xv.mean(axis=1, keepdims=True)
    var = ((xv - mu) ** 2).mean(axis=1, keepdims=True)
    s = np.sqrt(var + eps)
    xhat = (xv - mu) / s
    out = xhat * gain.value + bias.value

    def bwd(dout):
        if gain.requires_grad:
            _accum(gain, (dout * xhat).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, dout.sum(axis=0))
        if x.requires_grad:
            dxhat = dout * gain.value
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            _accum(x, (dxhat - m1 - xhat * m2) / s)

    return _node(out, (x, gain, bias), bwd, "layernorm_rows")


def mean_rows(x, groups=1):
    """Mean over each contiguous group of rows; (G·n, D) -> (G, D)."""
    x = as_tensor(x)
    r, d = x.value.shape
    if r % groups != 0:
        raise ValueError(f"{groups} groups do not divide {r} rows")
    n = r // groups
    out = x.value.reshape(groups, n, d).mean(axis=1)

    def bwd(dout):
        _accum(x, np.repeat(dout / n, n, axis=0))

    return _node(out, (x,), bwd, "mean_rows")


def repeat_rows_each(x, n):
    """Repeat every row n times consecutively; (G, D) -> (G·n, D)."""
    x = as_tensor(x)
    g, d = x.value.shape
    out = np.repeat(x.value, n, axis=0)

    def bwd(dout):
        _accum(x, dout.reshape(g, n, d).sum(axis=1))

    return _node(out, (x,), bwd, "repeat_rows_each")


def tile_rows(x, reps):
    """Stack the whole (N, D) block reps times; (N, D) -> (reps·N, D)."""
    x = as_tensor(x)
    n, d = x.value.shape
    out = np.tile(x.value, (reps, 1))

    def bwd(dout):
        _accum(x, dout.reshape(reps, n, d).sum(axis=0))

    return _node(out, (x,), bwd, "tile_rows")


def concat_last_axis(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape[:-1] != b.value.shape[:-1]:
        raise ValueError(f"concat shapes disagree: {a.value.shape} vs {b.value.shape}")
    da = a.value.shape[-1]

    def bwd(dout):
        _accum(a, dout[..., :da])
        _accum(b, dout[..., da:])

    return _node(np.concatenate([a.value, b.value], axis=-1), (a, b), bwd, "concat_last_axis")


def reshape(x, shape):
    x = as_tensor(x)
    old = x.value.shape
    out = x.value.reshape(shape)

    def bwd(dout):
        _accum(x, dout.reshape(old))

    return _node(out, (x,), bwd, "reshape")


def sum_all(x):
    x = as_tensor(x)

    def bwd(dout):
        _accum(x, np.broadcast_to(dout, x.value.shape).copy())

    return _node(np.sum(x.value).reshape(()), (x,), bwd, "sum_all")


# ---------------------------------------------------------------- structured

def unfold(grid, k):
    """Gather each cell's k×k zero-padded neighborhood of an (H, W, D) grid.

    Output is (H·W, k²·D) with windows flattened row-major: window rows,
    then window columns, then channels.
    """
    grid = as_tensor(grid)
    if grid.value.ndim != 3:
        raise ValueError(f"unfold expects (H, W, D), got {grid.value.shape}")
    h, w, d = grid.value.shape
    out = kernels.unfold_grid(grid.value, k)

    def bwd(dout):
        _accum(grid, kernels.unfold_grid_bwd(dout, h, w, d, k))

    return _node(out, (grid,), bwd, "unfold")


def unfold_tokens(x, h, w, k):
    """unfold applied per image to stacked token rows (G·h·w, D)."""
    x = as_tensor(x)
    r, d = x.value.shape
    n = h * w
    if r % n != 0:
        raise ValueError(f"token rows {r} not a multiple of grid size {n}")
    groups = r // n
    out = np.empty((r, k * k * d), dtype=np.float64)
    for g in range(groups):
        out[g * n:(g + 1) * n] = kernels.unfold_grid(x.value[g * n:(g + 1) * n].reshape(h, w, d), k)

    def bwd(dout):
        dx = np.empty_like(x.value)
        for g in range(groups):
            dx[g * n:(g + 1) * n] = kernels.unfold_grid_bwd(
                dout[g * n:(g + 1) * n], h, w, d, k).reshape(n, d)
        _accum(x, dx)

    return _node(out, (x,), bwd, "unfold_tokens")


def cross_entropy(logits, labels):
    """Mean negative log softmax probability of the true labels."""
    logits = as_tensor(logits)
    lv = logits.value
    labels = np.asarray(labels, dtype=np.int64)
    bsz, ncls = lv.shape
    if labels.shape != (bsz,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {bsz}")
    if labels.min() < 0 or labels.max() >= ncls:
        raise ValueError(f"label out of range for {ncls} classes")
    mx = lv.max(axis=1, keepdims=True)
    shifted = lv - mx
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out = (-logp[np.arange(bsz), labels].mean()).reshape(())
    probs = np.exp(logp)

    def bwd(dout):
        d = probs.copy()
        d[np.arange(bsz), labels] -= 1.0
        _accum(logits, d * (dout.item() / bsz))

    return _node(out, (logits,), bwd, "cross_entropy")


# ---------------------------------------------------------------- fd checking

def fd_gradient(f, x, step=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = f(x)
        flat[i] = keep - step
        lo = f(x)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * step)
    return g


def max_rel_err(a, b, floor=1e-7):
    """max over elements of |a−b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def check_gradients(build, tensors, step=1e-5, floor=1e-7):
    """Compare backward() grads of build() against central differences.

    build must construct a scalar loss from the given tensors each call.
    Returns the worst relative error across all tensors.
    """
    for t in tensors:
        t.requires_grad = True
    zero_grad(tensors)
    backward(build())
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.value)

        def f(arr, t=t):
            old = t.value
            t.value = np.ascontiguousarray(arr, dtype=np.float64)
            try:
                return float(build().value.reshape(()))
            finally:
                t.value = old

        fd = fd_gradient(f, t.value.copy(), step=step)
        worst = max(worst, max_rel_err(analytic, fd, floor=floor))
    return worst
