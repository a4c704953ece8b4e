"""Content-addressable retrieval over a memory bank, with iterative refinement.

Retrieval: normalize the query and the filled slots, score by scaled dot
product (factor √D restores the logits to roughly unit variance), softmax
over filled slots only, then mix the raw (unnormalized) slots by those
weights. Refinement nudges the state toward its retrieved prototype for T
steps: z ← z + β·(m(z) − z), re-retrieving each step. Gradients flow
through the query and β; slots are constants.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

_EPS = 1e-12


@dataclass
class RetrievalResult:
    alpha: np.ndarray
    m: np.ndarray
    top_indices: np.ndarray


@dataclass
class RefinementTrace:
    """States z^(0..T); per-step errors ε = m − z, energies ½‖ε‖², weights."""
    states: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    alphas: list = field(default_factory=list)


def _normalized_slots(bank):
    slots, slot_class, mask = bank.filled_view()
    norms = np.sqrt((slots ** 2).sum(axis=1, keepdims=True))
    return slots, slots / np.maximum(norms, _EPS), mask


def retrieve_rows(z, bank, groups=1):
    """Batched retrieval: (R, D) queries -> (alpha (R, K), m (R, D)) tensors.

    Row-wise application of the single-vector contract; rows never
    interact. Empty bank returns (None, z) so refinement is a no-op.
    """
    z = ad.as_tensor(z)
    if z.value.ndim != 2 or z.value.shape[1] != bank.dim:
        raise ValueError(f"query shape {z.value.shape} does not match bank dim {bank.dim}")
    if not bank.any_filled:
        return None, z
    slots, nslots, mask = _normalized_slots(bank)
    zhat = ad.l2_normalize_rows(z, eps=_EPS)
    logits = ad.scalar_mul(ad.matmul(zhat, nslots.T, groups=groups), np.sqrt(bank.dim))
    alpha = ad.softmax_rows(logits, mask=mask)
    m = ad.matmul(alpha, slots, groups=groups)
    return alpha, m


def retrieve(z, bank):
    """Single-vector retrieval returning plain arrays plus a slot ranking."""
    zv = np.asarray(z.value if isinstance(z, ad.Tensor) else z, dtype=np.float64).reshape(-1)
    if zv.shape != (bank.dim,):
        raise ValueError(f"query dim {zv.shape} does not match bank dim {bank.dim}")
    alpha, m = retrieve_rows(ad.Tensor(zv.reshape(1, -1)), bank)
    if alpha is None:
        return RetrievalResult(
            alpha=np.zeros(0), m=zv.copy(), top_indices=np.zeros(0, dtype=np.int64))
    a = alpha.value[0]
    # stable sort so ties rank the lower slot index first
    order = np.argsort(-a, kind="stable")
    return RetrievalResult(alpha=a.copy(), m=m.value[0].copy(), top_indices=order)


def refine_rows(z, bank, beta, T, groups=1, record_trace=False):
    """T refinement steps over row queries; returns (z_final, alpha, trace).

    alpha is the last step's retrieval weights as an array, None when the
    bank is never read. The trace is recorded only when record_trace is
    set, else None. T=0 returns z unchanged. An exactly-zero β with no
    trace requested also short-circuits: the update would add 0·(m − z),
    so the bank is not read at all (and β receives no gradient there,
    matching the read-free T=0 path bit for bit).
    """
    z = ad.as_tensor(z)
    beta = ad.as_tensor(beta)
    if T < 0:
        raise ValueError(f"negative step count {T}")
    trace = RefinementTrace(states=[z.value.copy()]) if record_trace else None
    if T == 0 or (not record_trace and float(beta.value.reshape(())) == 0.0):
        return z, None, trace
    cur = z
    for _ in range(T):
        alpha, m = retrieve_rows(cur, bank, groups=groups)
        delta = ad.sub(m, cur)
        cur = ad.add(cur, ad.scale(delta, beta))
        if record_trace:
            trace.errors.append(delta.value.copy())
            trace.energies.append(0.5 * (delta.value ** 2).sum(axis=1))
            trace.alphas.append(None if alpha is None else alpha.value.copy())
            trace.states.append(cur.value.copy())
    return cur, None if alpha is None else alpha.value, trace


def refine(z, bank, beta, T):
    """Single-vector refinement with a fully recorded trace."""
    zv = np.asarray(z.value if isinstance(z, ad.Tensor) else z, dtype=np.float64).reshape(1, -1)
    out, _, trace = refine_rows(ad.Tensor(zv), bank, beta, T, groups=1, record_trace=True)
    trace.states = [s[0] for s in trace.states]
    trace.errors = [e[0] for e in trace.errors]
    trace.energies = [float(f[0]) for f in trace.energies]
    trace.alphas = [None if a is None else a[0] for a in trace.alphas]
    return out.value[0].copy(), trace


def energy(z, m):
    """Squared prediction-error energy F = ½‖z − m‖²."""
    zv = np.asarray(z.value if isinstance(z, ad.Tensor) else z, dtype=np.float64).reshape(-1)
    mv = np.asarray(m.value if isinstance(m, ad.Tensor) else m, dtype=np.float64).reshape(-1)
    if zv.shape != mv.shape:
        raise ValueError(f"energy dims disagree: {zv.shape} vs {mv.shape}")
    return float(0.5 * ((zv - mv) ** 2).sum())


def variance_probe(dim, n, seed=0):
    """Empirical Var(q̂·k̂) and Var(√D·q̂·k̂) over n random unit-vector pairs.

    The raw variance decays like 1/D, which is why retrieval logits carry
    the √D factor.
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for a stable estimate, got {n}")
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, dim))
    k = rng.standard_normal((n, dim))
    q /= np.maximum(np.sqrt((q ** 2).sum(axis=1, keepdims=True)), _EPS)
    k /= np.maximum(np.sqrt((k ** 2).sum(axis=1, keepdims=True)), _EPS)
    dots = (q * k).sum(axis=1)
    raw = float(dots.var())
    return raw, float(dim * raw)
