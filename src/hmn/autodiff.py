"""Reverse-mode autodiff over float32 or float64 numpy arrays.

Just enough ops to express the model: matmul (with an optional bias), row
softmax, layernorm, gelu, unfold_matmul (neighborhood unfold and
projection), cross entropy, the small glue ops (broadcasting add, concat,
reshape, row mean, per-image weighted sum) and the two memory ops:
memory_read, one Hopfield read (normalize the queries, score them
against the bank's prebuilt keys, masked exp, mix, then divide by the row
sums), and hopfield_update, one refinement step. Values are checked
finite after every op.

Layout: activations carry a leading image axis, (B, N, D) for an image's N
token rows. Every forward GEMM of a (G, m, k) left operand with a shared
(k, n) right operand (matmul, unfold_matmul and both of memory_read's)
runs in 16-image tiles: ⌈G/16⌉ GEMMs of exactly 16·m rows, the last one
padded with zero images; a 2-D operand counts as one image. Within a call
of fixed height, BLAS gives a row the same bits wherever it sits and
whatever its neighbours hold, so an image's activations depend on its own
rows and the tile height only, never on what else is in the batch, down to
the last bit. One GEMM over all G·m rows would not do: its row bits depend
on its height. The property holds in float32, which models compute in, at
every shipped shape. In float64 it fails at some shapes whose n is not a
multiple of 8, where OpenBLAS's dgemm rounds the last columns of a
tile's last rows differently; the desk shape's 500-slot local read is
one (tests/test_autodiff.py lists the shapes checked). A train step and
an eval forward work in 32-image chunks (``model._CHUNK``), two tiles
each, so a chunk makes the same GEMM calls as its rows of the whole batch
would, and its R×K and (R, k²·D) intermediates stay one chunk's size
whatever the batch.
group_weighted_sum, whose operands both vary by image, keeps one GEMM per
image. Row ops work on the last axis. Backwards never produce logits, so
each gradient GEMM is one BLAS call over all rows. Inside a ``no_grad()``
scope ops still compute and check their values but record no graph, so
inference holds no activations beyond the ones still referenced.
backward() takes the graph apart as it walks it, so after a training step
only the leaves' gradients remain.

Lanes: a chunk's tiles are its lanes. Inside a ``lanes()`` scope every
GEMM runs on one BLAS thread, and the scope runs a chunk's two lanes
concurrently, lane 0 in the calling thread and lane 1 on one persistent
worker thread, where the BLAS had two threads or more. Most of a step is
elementwise and copy passes that numpy runs in one thread, so the
second core does more as a lane than as a second BLAS thread. A train
step's lane runs its own forward, cross-entropy and backward; lane 1's
backward takes a sink, so its leaf gradients are added after lane 0's.
So a lane makes the same calls, and its gradients meet in the same
order, whether the lanes run concurrently or one after another: the bits
do not depend on the BLAS thread count. Lanes share only what they read
(parameters, bank slots and keys); lane 0's backward alone adds into
.grad while they run. Whether ops record a graph, and where a backward
puts leaf gradients, are context variables: lane 1 runs in a copy of its
caller's context, so it records as its caller does, and a ``no_grad()``
scope in one thread never stops another thread's graph. Neither lane
ever waits for the other before the join: what lane 1 hands on, its
sink's gradients, its bank writes and its capture events, is held and
taken by the calling thread after the join.

Ops preserve dtype: a float32 tensor stays float32 through every op, its
gradient included, and every other input computes in float64 (the dtype
rule of ``kernels.as_float``). Constants inside ops are Python floats,
which never widen a float32 array; a numpy float64 scalar would.

In-place rule: gelu, layernorm_rows, memory_read and hopfield_update write
their intermediates into buffers they reuse (``out=``, ``*=``) instead of
allocating one per expression. Each runs the same numpy operations on the
same operands in the same order as the plain expression in its comment, so
every output bit is the same; only the operands of a single + or × may
swap. Regrouping or multiplying by a reciprocal would change bits and is
not done to save a buffer. memory_read's softmax has no max subtraction:
its logits are cosines scaled by √D, so they are bounded and exp cannot
overflow (see memory_read). It normalizes after the mix, (e·S)/s rather
than (e/s)·S, a regrouping chosen to move the divide from R×K to R×D
elements. softmax_rows, which pools over unbounded attention logits,
keeps its max pass. A buffer is reused only when nothing reads it later:
forward values handed to callers (the op outputs and memory_read's
unnormalized weights e, which its ReadWeights divides on demand) are
never overwritten.

Hand-over rule: ``_accum`` stores a first gradient as it was built. A
backward that built g itself and reads it no more hands it over
(``own=True``) and g itself is stored: matmul's dA, dB and dbias, gelu,
layernorm_rows' dx, memory_read, unfold_matmul, softmax_rows,
cross_entropy and hopfield_update's β·dout and −β·dout. A node's dout is
its own gradient, private to it, so add hands dout itself (or its sum) to
the first operand once the second has taken a copy or a sum. Gradients
that pass dout on, whole or as a view (reshape, concat_last_axis,
mean_rows and hopfield_update's to z), are stored as a copy, because one
dout may reach two parents, or be a read-only broadcast, and a stored
gradient is later added into in place.

Retention rule: graph nodes hold no values. A Tensor is its array plus,
while it requires grad, a Node with the gradient, the parents' nodes and
the backward closure; a closure holds its inputs' nodes and only the
arrays its backward reads. So an op output that no backward reads is freed
once its caller drops it, while the graph lives on. add, concat_last_axis,
reshape and mean_rows keep shapes only. gelu keeps its derivative, built
in forward in the tanh's buffer and only when it records a node, in place
of its input and tanh. matmul adds its bias in place into the GEMM's
result, the same bits as a separate add, so no pre-bias array is kept;
unfold_matmul drops its (R, k²·D) unfold once the GEMM has read it and
rebuilds it from its input, a pure copy with the same bits, for dW.
"""

import contextlib
import contextvars
import math
import os
import threading
import types

import numpy as np

from . import _blas, kernels

_FINITE_MSG = "{} produced non-finite values"
_EPS = 1e-12

# whether ops record a graph: off inside no_grad(). A context variable, so
# a scope covers its own thread and the lanes it runs (``_Lanes.run`` runs
# lane 1 in a copy of the caller's context), never another thread
_recording = contextvars.ContextVar("recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Scope in which op outputs keep no parents and no backward closure."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(_FINITE_MSG.format(name))
    return arr


class Node:
    """The graph side of a tensor that requires grad; it holds no value.

    grad is the gradient accumulated so far, _parents the nodes of the op's
    inputs that require grad, _backward the closure that passes a gradient
    on to them (None for a leaf), and _walked is set once backward() has
    run it.
    """

    __slots__ = ("grad", "_parents", "_backward", "_walked")

    def __init__(self, parents=(), bwd=None):
        self.grad = None
        self._parents = parents
        self._backward = bwd
        self._walked = False


class Tensor:
    """A float32 or float64 array, plus its graph node while it requires grad.

    A float32 array is kept as float32; anything else is cast to float64.
    ``grad``, ``_parents`` and ``_backward`` read (and the last two write)
    the node's fields.
    """

    __slots__ = ("value", "node")

    def __init__(self, value, requires_grad=False):
        value = kernels.as_float(value)
        # only a non-contiguous array is copied; a 0-d value stays 0-d
        self.value = value if value.flags.c_contiguous else np.ascontiguousarray(value)
        self.node = Node() if requires_grad else None

    @property
    def requires_grad(self):
        return self.node is not None

    @requires_grad.setter
    def requires_grad(self, flag):
        if not flag:
            self.node = None
        elif self.node is None:
            self.node = Node()

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def _parents(self):
        return () if self.node is None else self.node._parents

    @property
    def _backward(self):
        return None if self.node is None else self.node._backward

    @_backward.setter
    def _backward(self, bwd):
        self.node._backward = bwd

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.value.shape}{flag})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(*inputs):
    """Whether an op over these input tensors records a node."""
    return _recording.get() and any(t.node is not None for t in inputs)


def _node(value, inputs, bwd, name):
    """The op's output tensor; it records a node with parents and bwd when
    an input requires grad outside no_grad(). bwd must hold nodes, never
    the input tensors, so that their values are freed with them."""
    out = Tensor(_finite(name, value))
    if _records(*inputs):
        out.node = Node(tuple(t.node for t in inputs if t.node is not None), bwd)
    return out


# the leaf-gradient sink of the backward walking in this context, if any
_sink = contextvars.ContextVar("sink", default=None)


def _accum(node, g, own=False):
    """Add g into node.grad; None (an input that requires no grad) takes
    nothing. The first write stores a copy of g, since g may be a dout or
    a view of one that other parents also receive; with own=True, g
    itself, which the calling backward built and reads no more. Inside a
    backward given a sink, a leaf's gradient goes to the sink instead."""
    if node is None:
        return
    if node._backward is None and (sink := _sink.get()) is not None:
        node = sink.setdefault(node, Node())
    if node.grad is None:
        node.grad = g if own else g.copy()
    else:
        node.grad += g


def backward(loss, sink=None):
    """Backpropagate from a scalar loss, accumulating into leaf .grad additively.

    The graph is taken apart as the walk goes. Nodes run in reverse
    topological order, so once a node's backward has run every consumer of
    it has too: its closure, parent edges and gradient are then dropped.
    Leaves (tensors no op produced) keep their .grad. A graph can be walked
    once; a walk that reaches an already-walked node raises. A loss that
    requires no grad has no graph, and nothing happens.

    With sink, a dict, the walk leaves every .grad of a leaf alone and
    accumulates the leaf's gradient in sink[leaf node] instead, a Node of
    its own; ``accumulate`` later adds it into .grad. So a lane can walk
    its graph while another lane's walk adds into the same leaves.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    if loss.node is None:
        return
    topo = []
    seen = set()
    stack = [(loss.node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in seen:
            continue
        if node._walked:
            raise RuntimeError("backward already walked this graph; rebuild it before differentiating again")
        seen.add(node)
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p not in seen)
    loss.node.grad = np.ones_like(loss.value)
    token = _sink.set(sink)
    try:
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            node._backward(node.grad)
            node._backward = None
            node._parents = ()
            node.grad = None
            node._walked = True
    finally:
        _sink.reset(token)


def accumulate(sink):
    """Add the leaf gradients a backward collected in sink into the leaves' .grad."""
    for leaf, held in sink.items():
        _accum(leaf, held.grad, own=True)


def zero_grad(tensors):
    for t in tensors:
        if t.node is not None:
            t.node.grad = None


# ---------------------------------------------------------------- lanes

# the one worker thread that runs lane 1, made on first use, and the lock
# that one lanes() scope at a time holds while it may use it
_pool = None
_pool_free = threading.Lock()


def _forget_pool():
    # a forked child has the pool object but not its thread
    global _pool, _pool_free
    _pool, _pool_free = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class _Lanes:
    """What a ``lanes()`` scope yields: ``concurrent`` says whether run()
    may put a second lane on the worker thread."""

    def __init__(self, concurrent):
        self.concurrent = concurrent

    def run(self, fns):
        """Call each of fns, one lane each, at most two; their results in
        lane order. Lane 0 runs in the calling thread and lane 1, when
        concurrent, on the worker, in a copy of the caller's contextvars
        context (``np.errstate`` among them); otherwise after lane 0. Both
        lanes end before either's error is raised, lane 0's first. Neither
        waits for the other: whatever lane 1 hands on, its caller takes
        after the join."""
        if not self.concurrent or len(fns) < 2:
            return [fn() for fn in fns]
        first, second = fns
        future = _pool.submit(contextvars.copy_context().run, second)
        try:
            out = first()
        finally:
            future.exception()  # waits for lane 1, so lane 0's error comes after it
        return [out, future.result()]


def _replaced():
    """Whether a function of this module has been swapped for another, such
    as a tracer's or a test's wrapper: its thread safety is unknown (a
    span tracer with one stack per process is not safe), so lanes then run
    one after another."""
    return any(globals()[name] is not fn for name, fn in _OWN.items())


@contextlib.contextmanager
def lanes():
    """Scope for running a chunk's tiles as lanes: every GEMM in it runs on
    one BLAS thread (``_blas.one_thread``), and it yields a ``_Lanes``.
    Lanes run concurrently when the BLAS had at least two threads at entry,
    no function of this module has been replaced (``_replaced``) and no
    other scope holds the worker; so a scope opened inside a lane, a
    capture or another thread's scope runs its lanes one after another, as
    does a process without the library. Either way each lane makes the
    same calls, so the results are the same bits."""
    global _pool
    ambient = _blas.threads()
    with _blas.one_thread():
        if (ambient is None or ambient < 2 or _replaced()
                or not _pool_free.acquire(blocking=False)):
            yield _Lanes(False)
            return
        try:
            if _pool is None:
                # imported on first use: it costs a few ms of every import
                from concurrent.futures import ThreadPoolExecutor
                _pool = ThreadPoolExecutor(1, thread_name_prefix="hmn-lane")
            yield _Lanes(True)
        finally:
            _pool_free.release()


# ---------------------------------------------------------------- linear maps

# images per forward GEMM call; see "Layout" above
_TILE = 16


def _tiled_matmul(a, b):
    """a·b for an (m, k) or (G, m, k) a, one image per leading index, and a
    shared (k, n) b, as ⌈G/16⌉ GEMMs of exactly 16·m rows -> shaped as a
    with n columns.

    Full tiles read a's rows and write the result in place; only a tail
    tile is copied, into a zeroed 16-image buffer.
    """
    *lead, m, k = a.shape
    n = b.shape[1]
    rows = _TILE * m
    a2 = a.reshape(-1, k)
    total = a2.shape[0]
    out = np.empty((total, n), dtype=np.result_type(a, b))
    full = total - total % rows
    for i in range(0, full, rows):
        np.matmul(a2[i:i + rows], b, out=out[i:i + rows])
    if full < total:
        tail = np.zeros((rows, k), dtype=a2.dtype)
        tail[:total - full] = a2[full:]
        out[full:] = np.matmul(tail, b)[:total - full]
    return out.reshape(*lead, m, n)


def matmul(a, b, bias=None):
    """C = A·B (+ bias) for (m, k) or (G, m, k) A, a shared (k, n) B and an (n,) bias.

    Forward runs in 16-image tiles (``_tiled_matmul``); model code stacks
    one image per leading index. The bias is added in place into the GEMM's
    result, the same bits as a separate add, so no pre-bias array is kept.
    Backward ignores the stacking: dA and dB are one GEMM each over all G·m
    rows, and dbias one column sum.
    """
    a, b = as_tensor(a), as_tensor(b)
    ka = a.value.shape[-1]
    kb, n = b.value.shape
    if a.value.ndim not in (2, 3) or ka != kb:
        raise ValueError(f"matmul dims disagree: {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    out = _tiled_matmul(av, bv)
    inputs, na, nb, nbias = (a, b), a.node, b.node, None
    if bias is not None:
        bias = _bias_for(bias, n)
        out += bias.value
        inputs, nbias = (a, b, bias), bias.node

    def bwd(dout):
        d2 = dout.reshape(-1, n)
        if na is not None:
            _accum(na, (d2 @ bv.T).reshape(av.shape), own=True)
        if nb is not None:
            _accum(nb, av.reshape(-1, ka).T @ d2, own=True)
        _accum_bias(nbias, d2)

    return _node(out, inputs, bwd, "matmul")


def _bias_for(bias, n):
    bias = as_tensor(bias)
    if bias.value.shape != (n,):
        raise ValueError(f"bias shape {bias.value.shape} does not fit {n} output columns")
    return bias


def _accum_bias(node, d2):
    """dbias from (R, n) output gradient rows: what _unbroadcast sums for an (n,) operand."""
    if node is not None:
        _accum(node, d2.sum(axis=0), own=True)


def group_weighted_sum(weights, rows):
    """out[g] = weights[g] · rows[g] for per-image row mixing.

    weights: (G, n); rows: (G, n, D); out: (G, 1, D). Unlike matmul, both
    operands vary by image, which is what attention pooling needs.
    """
    weights, rows = as_tensor(weights), as_tensor(rows)
    wv, rv = weights.value, rows.value
    if wv.ndim != 2 or rv.ndim != 3 or rv.shape[:2] != wv.shape:
        raise ValueError(f"weights {wv.shape} do not fit rows {rv.shape}")
    g, n = wv.shape
    nw, nr = weights.node, rows.node

    def bwd(dout):
        if nw is not None:
            _accum(nw, np.matmul(rv, dout.reshape(g, -1, 1)).reshape(g, n))
        if nr is not None:
            _accum(nr, wv[:, :, None] * dout)

    return _node(np.matmul(wv[:, None, :], rv), (weights, rows), bwd, "group_weighted_sum")


# ---------------------------------------------------------------- elementwise

def _unbroadcast(g, shape):
    """Sum g back to an operand of ``shape`` that numpy broadcast to g.shape.

    Missing leading axes fold into one and sum over it; size-1 axes then
    sum with keepdims. A (D,) operand thus sums reshape(-1, D) over axis 0.
    """
    lead = g.ndim - len(shape)
    if lead:
        g = g.reshape(-1, *g.shape[lead:]).sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b):
    """a + b with numpy broadcasting; each gradient sums back to its operand."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.value + b.value
    na, nb, sa, sb = a.node, b.node, a.value.shape, b.value.shape

    def bwd(dout):
        # b first, taking a copy unless it sums; dout is this node's own
        # gradient, so a may then keep it (or its sum) as it is
        gb = _unbroadcast(dout, sb)
        _accum(nb, gb, own=gb is not dout)
        _accum(na, _unbroadcast(dout, sa), own=True)

    return _node(out, (a, b), bwd, "add")


def gelu(x):
    """tanh-form gelu: 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).

    A recorded node keeps only the derivative, which forward builds in t's
    buffer; backward multiplies it by dout.
    """
    x = as_tensor(x)
    c = math.sqrt(2.0 / math.pi)
    xv = x.value
    # t = tanh(c·(xv + 0.044715·(xv·xv·xv))), out = 0.5·xv·(1 + t); xv ** 3
    # would take the slow general pow path
    t = xv * xv
    t *= xv
    t *= 0.044715
    t += xv
    t *= c
    np.tanh(t, out=t)
    out = np.multiply(xv, 0.5)
    out *= np.add(t, 1.0)
    nx = x.node
    if _records(x):
        # 0.5·(1 + t) + 0.5·xv·(1 − t²)·c·(1 + 3·0.044715·xv²), finished
        # in t's buffer now that out has read t
        u = np.square(t)
        np.subtract(1.0, u, out=u)
        h = np.multiply(xv, 0.5)
        h *= u
        np.square(xv, out=u)
        u *= 3 * 0.044715
        u += 1.0
        u *= c
        h *= u
        t += 1.0
        t *= 0.5
        t += h

    def bwd(dout):
        dx = t  # backward runs once, so the derivative's buffer takes dx
        dx *= dout
        _accum(nx, dx, own=True)

    return _node(out, (x,), bwd, "gelu")


# ---------------------------------------------------------------- row ops

def softmax_rows(x):
    """Softmax over the last axis, with max-subtraction."""
    x = as_tensor(x)
    xv = x.value
    if xv.ndim < 1 or xv.shape[-1] < 1:
        raise ValueError(f"softmax_rows expects a nonempty last axis, got {xv.shape}")
    mx = xv.max(axis=-1, keepdims=True)
    e = np.exp(xv - mx)
    out = e / e.sum(axis=-1, keepdims=True)
    nx = x.node

    def bwd(dout):
        # dx_j = a_j·(dout_j − Σ_t dout_t·a_t)
        inner = (dout * out).sum(axis=-1, keepdims=True)
        _accum(nx, out * (dout - inner), own=True)

    return _node(out, (x,), bwd, "softmax_rows")


def layernorm_rows(x, gain, bias):
    """Standardization over the last axis (ε = 1e-5) with learnable per-feature affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xv = x.value
    d = xv.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ValueError("layernorm affine shape mismatch")
    mu = xv.mean(axis=-1, keepdims=True)
    xhat = xv - mu
    out = np.square(xhat)  # the squares' buffer then takes the output
    var = out.mean(axis=-1, keepdims=True)
    s = np.sqrt(var + 1e-5)
    xhat /= s
    gv = gain.value
    np.multiply(xhat, gv, out=out)
    out += bias.value
    nx, ngain, nbias = x.node, gain.node, bias.node

    def bwd(dout):
        prod = None
        if ngain is not None:
            prod = dout * xhat
            _accum(ngain, prod.reshape(-1, d).sum(axis=0))
        if nbias is not None:
            _accum(nbias, dout.reshape(-1, d).sum(axis=0))
        if nx is not None:
            # (dxhat − mean(dxhat) − xhat·mean(dxhat·xhat)) / s, with
            # dxhat = dout·gain; xhat's buffer is free once it is read
            dx = dout * gv
            m1 = dx.mean(axis=-1, keepdims=True)
            prod = np.multiply(dx, xhat, out=prod)
            m2 = prod.mean(axis=-1, keepdims=True)
            dx -= m1
            np.multiply(xhat, m2, out=xhat)
            dx -= xhat
            dx /= s
            _accum(nx, dx, own=True)

    return _node(out, (x, gain, bias), bwd, "layernorm_rows")


def mean_rows(x):
    """Mean over each image's rows; (G, n, D) -> (G, 1, D)."""
    x = as_tensor(x)
    xv = x.value
    n, shape, nx = xv.shape[-2], xv.shape, x.node

    def bwd(dout):
        _accum(nx, np.broadcast_to(dout / n, shape))

    return _node(xv.mean(axis=-2, keepdims=True), (x,), bwd, "mean_rows")


def concat_last_axis(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape[:-1] != b.value.shape[:-1]:
        raise ValueError(f"concat shapes disagree: {a.value.shape} vs {b.value.shape}")
    da, na, nb = a.value.shape[-1], a.node, b.node

    def bwd(dout):
        _accum(na, dout[..., :da])
        _accum(nb, dout[..., da:])

    return _node(np.concatenate([a.value, b.value], axis=-1), (a, b), bwd, "concat_last_axis")


def reshape(x, shape):
    x = as_tensor(x)
    old, nx = x.value.shape, x.node
    out = x.value.reshape(shape)

    def bwd(dout):
        _accum(nx, dout.reshape(old))

    return _node(out, (x,), bwd, "reshape")


# ---------------------------------------------------------------- memory read

def normalize_rows(x):
    """(x / max(‖row‖, ε), ‖row‖) over the last axis, so zero rows stay zero."""
    norm = np.sqrt((x ** 2).sum(axis=-1, keepdims=True))
    return x / np.maximum(norm, _EPS), norm


class ReadWeights:
    """The retrieval weights α = e / s of one memory_read, formed when read.

    e holds the read's unnormalized weights (R×K) and s their row sums
    (R×1). Each read of ``value`` divides them; ``shape`` is e's. No graph:
    α is a diagnostic, and gradients reach z through m. ``stack`` joins
    the reads of consecutive images, such as a batch's tiles, without
    copying their e: ``shape`` then counts every part's rows, and
    ``value`` divides each part into its rows of one output. ``pick``
    keeps one row per image, so that α is formed for those rows alone.
    """

    __slots__ = ("_e", "_s", "_more")

    def __init__(self, e, s, more=()):
        # more: the (e, s) parts of the rows that follow, when stacked
        self._e, self._s, self._more = e, s, tuple(more)

    def _parts(self):
        return ((self._e, self._s),) + self._more

    @classmethod
    def stack(cls, reads):
        """One ReadWeights whose rows are those of reads, in order."""
        (e, s), *more = (part for r in reads for part in r._parts())
        return cls(e, s, more)

    @property
    def shape(self):
        return (sum(len(e) for e, _ in self._parts()), *self._e.shape[1:])

    def pick(self, index):
        """The weights of one row per image: (G, 1, K) ReadWeights of
        (G, R, K) weights, row index[i] of image i. Its ``value`` has the
        bits of those rows of this ``value``, and only their e and s are
        copied."""
        parts, start = [], 0
        for e, s in self._parts():
            rows = (np.arange(len(e)), index[start:start + len(e)])
            parts.append((e[rows][:, None], s[rows][:, None]))
            start += len(e)
        (e, s), *more = parts
        return ReadWeights(e, s, more)

    @property
    def value(self):
        out = np.empty(self.shape, dtype=self._e.dtype)
        start = 0
        for e, s in self._parts():
            np.divide(e, s, out=out[start:start + len(e)])
            start += len(e)
        return out


def read_keys(slots):
    """The (D, K) keys memory_read scores against: the (K, D) slots as unit
    rows times √D, transposed into one contiguous, read-only array. They
    change only with the slots, so a bank builds them once per state
    (``MemoryBank.keys``) and its reads share them."""
    keys = normalize_rows(slots)[0]
    keys *= math.sqrt(slots.shape[1])
    keys_t = np.ascontiguousarray(keys.T)
    keys_t.flags.writeable = False
    return keys_t


def memory_read(z, slots, keys, mask):
    """Hopfield read of (R, D) or (G, R, D) queries from (K, D) constant slots -> (weights, m).

    α is the row softmax of √D·ẑ·k̂ᵀ over the slots the mask keeps (the
    others get exactly 0), ẑ and k̂ being unit rows; m = α·slots. The read
    forms e = exp(√D·ẑ·k̂ᵀ) and its row sums s, mixes the unnormalized
    weights and divides after the mix: m = (e·slots)/s, over R×D instead
    of R×K. ``weights`` is a ReadWeights, whose ``value`` is α = e/s,
    formed only when read; it carries no graph, m carries z's. Both GEMMs
    run in 16-image tiles, as in matmul, with one image per leading index.

    keys are the slots' ``read_keys``, the unit slots with √D folded in,
    so the logits GEMM already carries it. The caller builds them once
    per bank state, not per read, and backward holds that one array. exp
    runs in place with no max subtraction: a logit is at most √D, so s is
    at most K·e^√D and e·slots at most s times the largest slot
    component. ``RunConfig`` keeps √D + ln K below 60, which leaves
    float32 e^28 of headroom for slot and gradient magnitudes; an
    overflow fails the finite check on s or m. The smallest weight e^−√D
    stays above 0. Backward takes the softmax's Σₖ αₖ·dαₖ as the R×D
    product dout·m (dα = dout·slotsᵀ), forms e ⊙ (dα − Σₖ αₖ·dαₖ) in dα's
    buffer and divides by s after the GEMM back to R×D. So the R×K work
    is 2 elementwise passes forward, exp and row sum (3 while the bank is
    partly filled), and 2 backward.
    """
    z = as_tensor(z)
    zv = z.value
    d = zv.shape[-1]
    k = slots.shape[0]
    if keys.shape != (d, k):
        raise ValueError(f"memory_read: keys {keys.shape} do not match ({d}, {k})")
    if not mask.any():
        raise ValueError("memory_read: every slot is masked")
    zhat, znorm = normalize_rows(zv)
    e = _tiled_matmul(zhat, keys)
    if not mask.all():
        e[..., ~mask] = -np.inf  # exp gives exactly 0 there
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    # past the bound an inf sum would turn every weight into 0, not nan
    _finite("memory_read", total)
    m = _tiled_matmul(e, slots)
    m /= total
    nz, zshape = z.node, zv.shape

    def bwd(dout):
        # one GEMM per product over all rows
        d2, zhat2, znorm2 = dout.reshape(-1, d), zhat.reshape(-1, d), znorm.reshape(-1, 1)
        # e·(dα − Σₖ αₖ·dαₖ), finished in dα's buffer; its GEMM with the
        # keys is then divided by s, giving dẑ
        inner = (d2 * m.reshape(-1, d)).sum(axis=1, keepdims=True)
        dlogits = d2 @ slots.T
        dlogits -= inner
        dlogits *= e.reshape(-1, k)
        dzhat = dlogits @ keys.T
        dzhat /= total.reshape(-1, 1)
        # a row at or under ε is z/ε, linear: no projection off ẑ
        inner = (dzhat * zhat2).sum(axis=1, keepdims=True)
        dzhat -= zhat2 * np.where(znorm2 > _EPS, inner, 0.0)
        dzhat /= np.maximum(znorm2, _EPS)
        _accum(nz, dzhat.reshape(zshape), own=True)

    return ReadWeights(e, total), _node(m, (z,), bwd, "memory_read")


def hopfield_update(z, m, beta):
    """One refinement step z + β·(m − z) toward the read-out m; β is a scalar tensor."""
    z, m, beta = as_tensor(z), as_tensor(m), as_tensor(beta)
    if m.value.shape != z.value.shape:
        raise ValueError(f"update shapes disagree: {z.value.shape} vs {m.value.shape}")
    bv = float(beta.value.reshape(()))  # ValueError unless β has one element
    diff = m.value - z.value
    # z + β·diff, the sum's operands swapped
    out = bv * diff
    out += z.value
    nz, nm, nbeta, bshape = z.node, m.node, beta.node, beta.value.shape

    def bwd(dout):
        g = bv * dout
        neg = -g
        # z gets dout, then −β·dout after m's β·dout: m may be z itself
        _accum(nz, dout)
        _accum(nm, g, own=True)
        _accum(nz, neg, own=True)
        if nbeta is not None:
            prod = np.multiply(diff, dout, out=diff)
            _accum(nbeta, np.sum(prod).reshape(bshape))

    return _node(out, (z, m, beta), bwd, "hopfield_update")


# ---------------------------------------------------------------- structured

def unfold_matmul(x, h, w, k, weight, bias):
    """Per-image k×k neighborhood gather of (G, h·w, D) tokens, or one (h·w, D)
    grid, projected: unfold(x)·weight + bias, (G, h·w, n) out.

    Each image's h·w rows form a zero-padded grid whose windows flatten
    row-major (window rows, window columns, channels) into (h·w, k²·D) rows,
    projected in 16-image tiles against the (k²·D, n) weight, as in matmul.
    The unfolded rows are dropped once the GEMM has read them: backward
    rebuilds them from x for dW, a pure copy with the same bits, rather than
    keeping them alive.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    xv, wv = x.value, weight.value
    *lead, rows, d = xv.shape
    if rows != h * w:
        raise ValueError(f"{rows} token rows do not form a {h}x{w} grid")
    kd, n = wv.shape
    if kd != k * k * d:
        raise ValueError(f"weight rows {kd} do not fit a {k}x{k} window of width {d}")
    bias = _bias_for(bias, n)
    grid = (*lead, h, w, d)
    out = _tiled_matmul(kernels.unfold_grid(xv.reshape(grid), k), wv)
    out += bias.value
    nx, nw, nbias = x.node, weight.node, bias.node

    def bwd(dout):
        # one (R, k²·D) array at a time: the rebuilt unfold, then dU
        d2 = dout.reshape(-1, n)
        if nw is not None:
            u = kernels.unfold_grid(xv.reshape(grid), k).reshape(-1, kd)
            _accum(nw, u.T @ d2, own=True)
            del u
        _accum_bias(nbias, d2)
        if nx is not None:
            du = (d2 @ wv.T).reshape(*lead, rows, kd)
            _accum(nx, kernels.unfold_grid_bwd(du, grid, k).reshape(xv.shape), own=True)

    return _node(out, (x, weight, bias), bwd, "unfold_matmul")


def cross_entropy(logits, labels, total=None):
    """Negative log softmax probability of the true labels, summed and
    divided by total, 0-d; total None means the row count, so the mean.
    A train step over chunks of a batch divides each chunk's sum by the
    batch size, so the chunks' gradients add up to those of the batch
    mean."""
    logits = as_tensor(logits)
    lv = logits.value
    labels = np.asarray(labels, dtype=np.int64)
    bsz, ncls = lv.shape
    total = bsz if total is None else total
    if labels.shape != (bsz,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {bsz}")
    if labels.min() < 0 or labels.max() >= ncls:
        raise ValueError(f"label out of range for {ncls} classes")
    mx = lv.max(axis=1, keepdims=True)
    shifted = lv - mx
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out = -(logp[np.arange(bsz), labels].sum() / total)
    probs = np.exp(logp)
    nl = logits.node

    def bwd(dout):
        d = probs.copy()
        d[np.arange(bsz), labels] -= 1.0
        _accum(nl, d * (dout.item() / total), own=True)

    return _node(np.asarray(out), (logits,), bwd, "cross_entropy")


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
                return build().value.item()
            finally:
                t.value = old

        fd = fd_gradient(f, t.value.copy(), step=step)
        worst = max(worst, max_rel_err(analytic, fd, floor=floor))
    return worst


# the module's own functions, for _replaced
_OWN = {name: fn for name, fn in globals().items()
        if isinstance(fn, types.FunctionType) and fn.__module__ == __name__}
