"""Content-addressable retrieval over a memory bank, with iterative refinement.

Both functions take a batch of row queries; rows never interact.
Retrieval: normalize the queries and the filled slots, score by scaled dot
product (factor √D restores the logits to roughly unit variance), softmax
over filled slots only, then mix the raw (unnormalized) slots by those
weights. Refinement nudges each row toward its retrieved prototype for T
steps: z ← z + β·(m(z) − z), re-retrieving each step. Gradients flow
through the queries and β; slots are constants.
"""

import numpy as np

from . import autodiff as ad

_EPS = 1e-12


def _normalized_slots(bank):
    slots, slot_class, mask = bank.filled_view()
    norms = np.sqrt((slots ** 2).sum(axis=1, keepdims=True))
    return slots, slots / np.maximum(norms, _EPS), mask


def retrieve_rows(z, bank, groups=1):
    """(R, D) queries -> (alpha (R, K), m (R, D)) tensors.

    An empty bank returns (None, z), so refinement against it is a no-op.
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


def refine_rows(z, bank, beta, T, groups=1):
    """T refinement steps over (R, D) row queries; returns (z_final, alpha).

    alpha is the last step's retrieval weights as an array, None when the
    bank is never read. T=0 or an exactly-zero β returns z unchanged
    without reading the bank: the update would add 0·(m − z), so skipping
    it matches the read-free T=0 path bit for bit (β gets no gradient).
    """
    z = ad.as_tensor(z)
    beta = ad.as_tensor(beta)
    if T < 0:
        raise ValueError(f"negative step count {T}")
    if T == 0 or float(beta.value.reshape(())) == 0.0:
        return z, None
    for _ in range(T):
        alpha, m = retrieve_rows(z, bank, groups=groups)
        z = ad.add(z, ad.scale(ad.sub(m, z), beta))
    return z, None if alpha is None else alpha.value


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
