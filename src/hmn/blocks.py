"""One model block: local and global memory branches fused into an MLP.

Tokens are (B, N, D_emb), one image per leading index. Local branch:
unfold each token's k×k neighborhood and project it to the latent space
(one op, ``unfold_matmul``, which keeps no unfolded copy for backward),
refine against the block's local bank, concat the refined and raw queries,
project back. Global branch: mean-pool the image's tokens into a
(B, 1, D_emb) row, same treatment against the global bank; adding it to
the local branch broadcasts it to all the image's tokens. The branch sum
feeds a two-layer MLP whose output rides a skip connection from the block
input. Every linear map adds its bias inside its ``matmul``. A block only
reads its banks: each read hands its unrefined queries to the caller's
capture callable, through which the train step queues the rows it writes
once every read of the step is done (``Model._writer``). Parameters, β
and bank slots all hold the block's dtype.
"""

from collections import OrderedDict

import numpy as np

from . import autodiff as ad
from .memory import MemoryBank
from .retrieval import refine_rows


def _linear(rng, fan_in, fan_out, dtype):
    w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
    return ad.Tensor(w.astype(dtype), requires_grad=True)


def _vec(value, n, dtype):
    return ad.Tensor(np.full(n, float(value), dtype=dtype), requires_grad=True)


class HMNBlock:
    def __init__(self, cfg, rng, dtype):
        self.cfg = cfg
        self.h_p, self.w_p = cfg.grid_shape
        k, d_e, d_l, r = cfg.k, cfg.d_emb, cfg.d_lat, cfg.mlp_ratio
        self.W_loc_in = _linear(rng, k * k * d_e, d_l, dtype)
        self.b_loc_in = _vec(0.0, d_l, dtype)
        self.W_loc_out = _linear(rng, 2 * d_l, d_e, dtype)
        self.b_loc_out = _vec(0.0, d_e, dtype)
        self.W_glob_in = _linear(rng, d_e, d_l, dtype)
        self.b_glob_in = _vec(0.0, d_l, dtype)
        self.W_glob_out = _linear(rng, 2 * d_l, d_e, dtype)
        self.b_glob_out = _vec(0.0, d_e, dtype)
        # β is a 1-element vector: its checkpoint record and Adam state are (1,)
        self.beta_local = _vec(cfg.beta_init, 1, dtype)
        self.beta_global = _vec(cfg.beta_init, 1, dtype)
        self.W1 = _linear(rng, d_e, r * d_e, dtype)
        self.b1 = _vec(0.0, r * d_e, dtype)
        self.W2 = _linear(rng, r * d_e, d_e, dtype)
        self.b2 = _vec(0.0, d_e, dtype)
        self.norm_in_gain = _vec(1.0, d_e, dtype)
        self.norm_in_bias = _vec(0.0, d_e, dtype)
        self.norm_mlp_gain = _vec(1.0, d_e, dtype)
        self.norm_mlp_bias = _vec(0.0, d_e, dtype)
        self.bank_local = MemoryBank(cfg.num_classes, cfg.k_local, d_l, dtype)
        self.bank_global = MemoryBank(cfg.num_classes, cfg.k_global, d_l, dtype)

    def parameters(self, prefix):
        names = ["W_loc_in", "b_loc_in", "W_loc_out", "b_loc_out",
                 "W_glob_in", "b_glob_in", "W_glob_out", "b_glob_out",
                 "beta_local", "beta_global", "W1", "b1", "W2", "b2",
                 "norm_in_gain", "norm_in_bias", "norm_mlp_gain", "norm_mlp_bias"]
        return OrderedDict((f"{prefix}.{n}", getattr(self, n)) for n in names)

    def _refine(self, q, bank, beta, t_steps, capture, branch):
        """Refined queries; capture, when given, is called once with every
        read: capture(block, branch, q, weights), q the branch's unrefined
        queries, (B, N, D_lat) local or (B, 1, D_lat) global, and weights the
        last refinement step's ReadWeights, None where refinement read no
        bank (T=0, β=0 or an empty bank), which still makes the call: the
        bank writes depend on it. The block forms no alpha."""
        z, weights = refine_rows(q, bank, beta, t_steps)
        if capture is not None:
            capture(self, branch, q, weights)
        return z

    def _local_branch(self, x, t_steps, capture):
        q = ad.unfold_matmul(x, self.h_p, self.w_p, self.cfg.k, self.W_loc_in, self.b_loc_in)
        z = self._refine(q, self.bank_local, self.beta_local, t_steps, capture, "local")
        return ad.matmul(ad.concat_last_axis(z, q), self.W_loc_out, self.b_loc_out)

    def _global_branch(self, x, t_steps, capture):
        g = ad.mean_rows(x)
        qg = ad.matmul(g, self.W_glob_in, self.b_glob_in)
        zg = self._refine(qg, self.bank_global, self.beta_global, t_steps, capture, "global")
        return ad.matmul(ad.concat_last_axis(zg, qg), self.W_glob_out, self.b_glob_out)

    def forward(self, tokens, t_steps, capture=None):
        """Output for (B, N, D_emb) tokens, of their shape. capture is the
        per-read callable of ``_refine``, local read first."""
        x = ad.layernorm_rows(tokens, self.norm_in_gain, self.norm_in_bias)
        local = self._local_branch(x, t_steps, capture)
        glob = self._global_branch(x, t_steps, capture)
        f = ad.add(local, glob)
        y = ad.layernorm_rows(f, self.norm_mlp_gain, self.norm_mlp_bias)
        hidden = ad.gelu(ad.matmul(y, self.W1, self.b1))
        mlp_out = ad.matmul(hidden, self.W2, self.b2)
        return ad.add(tokens, mlp_out)
