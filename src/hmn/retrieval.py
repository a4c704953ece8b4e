"""Content-addressable retrieval over a memory bank, with iterative refinement.

Both functions take row queries, (R, D) or stacked one image per leading
index as (B, R, D); rows never interact. Retrieval is one
autodiff.memory_read: normalize the queries and the filled slots, score
by scaled dot product (factor √D restores the logits to roughly unit
variance; it is folded into the unit slots, which the bank keeps between
writes, ``MemoryBank.keys``), exponentiate over filled
slots only, mix the raw (unnormalized) slots by those weights and divide
by their row sums, which is the softmax mixture normalized after the mix.
The logits lie in [−√D, √D], so exp needs no max subtraction; RunConfig
keeps √D + ln K below 60, which leaves float32 room for the unnormalized
mix. The softmax weights themselves are formed only when a caller reads
them (autodiff.ReadWeights), which training and evaluation never do.
Refinement nudges each row toward its retrieved prototype for T steps,
one autodiff.hopfield_update each: z ← z + β·(m(z) − z). Gradients flow
through the queries and β; slots are constants.
"""

import numpy as np

from . import autodiff as ad


def retrieve_rows(z, bank):
    """(R, D) or (B, R, D) queries -> (weights, m): weights an
    autodiff.ReadWeights whose ``value`` is alpha (..., R, K), with no graph;
    m shaped as the queries.

    An empty bank raises ValueError: there is no slot to read.
    """
    z = ad.as_tensor(z)
    if z.value.ndim not in (2, 3) or z.value.shape[-1] != bank.dim:
        raise ValueError(f"query shape {z.value.shape} does not match bank dim {bank.dim}")
    slots, _, mask = bank.filled_view()
    return ad.memory_read(z, slots, bank.keys(), mask)


def refine_rows(z, bank, beta, T):
    """T refinement steps over (R, D) or (B, R, D) queries; returns (z_final, weights).

    weights is the last step's autodiff.ReadWeights, None when the bank is
    never read; reading its ``value`` forms alpha. T=0, an
    exactly-zero β or an empty bank returns z unchanged without reading
    the bank: there the update would add 0·(m − z) or has nothing to read,
    so z passes through with no node recorded (β gets no gradient).
    """
    z = ad.as_tensor(z)
    beta = ad.as_tensor(beta)
    if T < 0:
        raise ValueError(f"negative step count {T}")
    if T == 0 or float(beta.value.reshape(())) == 0.0 or not bank.any_filled:
        return z, None
    for _ in range(T - 1):
        # an earlier step's weights are dropped at once: without a graph,
        # the next read does not also hold this step's R×K array
        z = ad.hopfield_update(z, retrieve_rows(z, bank)[1], beta)
    weights, m = retrieve_rows(z, bank)
    return ad.hopfield_update(z, m, beta), weights


def variance_probe(dim, n, seed=0):
    """Empirical Var(q̂·k̂) and Var(√D·q̂·k̂) over n random unit-vector pairs.

    The raw variance decays like 1/D, which is why retrieval logits carry
    the √D factor.
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for a stable estimate, got {n}")
    rng = np.random.default_rng(seed)
    q, _ = ad.normalize_rows(rng.standard_normal((n, dim)))
    k, _ = ad.normalize_rows(rng.standard_normal((n, dim)))
    dots = (q * k).sum(axis=1)
    raw = float(dots.var())
    return raw, float(dim * raw)
