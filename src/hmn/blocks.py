"""One model block: local and global memory branches fused into an MLP.

Tokens are (B, N, D_emb), one image per leading index. Local branch:
unfold each token's k×k neighborhood and project it to the latent space
(one op, ``unfold_matmul``, which keeps no unfolded copy for backward),
refine against the block's local bank, concat the refined and raw queries,
project back. Global branch: mean-pool the image's tokens into a
(B, 1, D_emb) row, same treatment against the global bank; adding it to
the local branch broadcasts it to all the image's tokens. The branch sum
feeds a two-layer MLP whose output rides a skip connection from the block
input. Every linear map adds its bias inside its ``matmul``. In train
mode the detached queries are written to the banks after both branches
have read, so retrieval always sees pre-batch state; each bank gets one
batched write per forward. ``_forward`` returns those writes instead of
making them, so the model can hold a train step's writes back until all
its chunks have read. Parameters, β and bank slots all hold the block's
dtype.
"""

from collections import OrderedDict

import numpy as np

from . import autodiff as ad
from .memory import MemoryBank
from .retrieval import refine_rows, retrieve_rows


def _linear(rng, fan_in, fan_out, dtype):
    w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
    return ad.Tensor(w.astype(dtype), requires_grad=True)


def _vec(value, n, dtype):
    return ad.Tensor(np.full(n, float(value), dtype=dtype), requires_grad=True)


class HMNBlock:
    def __init__(self, cfg, rng, dtype=np.float64):
        self.cfg = cfg
        self.h_p, self.w_p = cfg.grid_shape
        self.n_tokens = cfg.n_tokens
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

    def _refine(self, q, bank, beta, t_steps, capture, key):
        """Refined queries; with capture, also keep the retrieval weights.

        The captured weights are the last refinement step's alpha, one row
        per query row ((B·N, K) local, (B, K) global). alpha is formed from
        the read's weights only here, under capture; without it the
        weights are dropped unread. When refinement skips the bank at T=0
        or β=0, a plain diagnostic retrieval of a filled bank stands in; an
        empty bank captures None.
        """
        z, weights = refine_rows(q, bank, beta, t_steps)
        if capture is not None:
            if weights is None and bank.any_filled:
                weights = retrieve_rows(q.detach(), bank)[0]
            alpha = None if weights is None else weights.value
            capture[key] = None if alpha is None else alpha.reshape(-1, alpha.shape[-1])
        return z

    def _write_tokens(self, b, rng):
        """(B, write_sample) sorted token indices, the rows of each image's
        local queries a train step writes: one draw per image, in image
        order, as the determinism contract fixes the rng stream."""
        n, s = self.n_tokens, self.cfg.write_sample
        return np.stack([np.sort(rng.choice(n, size=s, replace=False)) for _ in range(b)])

    def _local_branch(self, x, t_steps, picks, labels, capture):
        q = ad.unfold_matmul(x, self.h_p, self.w_p, self.cfg.k, self.W_loc_in, self.b_loc_in)
        z = self._refine(q, self.bank_local, self.beta_local, t_steps, capture, "local_alpha")
        out = ad.matmul(ad.concat_last_axis(z, q), self.W_loc_out, self.b_loc_out)
        writes = None
        if picks is not None:
            # a pure copy: image i's rows q[i, picks[i]], in image order
            rows = q.value[np.arange(len(picks))[:, None], picks]
            writes = rows.reshape(-1, rows.shape[-1]), np.repeat(labels, picks.shape[1])
        return out, writes

    def _global_branch(self, x, t_steps, mode, labels, capture):
        g = ad.mean_rows(x)
        qg = ad.matmul(g, self.W_glob_in, self.b_glob_in)
        zg = self._refine(qg, self.bank_global, self.beta_global, t_steps, capture,
                          "global_alpha")
        out = ad.matmul(ad.concat_last_axis(zg, qg), self.W_glob_out, self.b_glob_out)
        return out, (qg.value[:, 0], labels) if mode == "train" else None

    def _forward(self, tokens, t_steps, picks, labels, capture):
        """(out, writes): picks None reads only and writes is None; else
        writes holds the (rows, class ids) this batch would write to the
        local bank and to the global bank, unwritten."""
        mode = "eval" if picks is None else "train"
        x = ad.layernorm_rows(tokens, self.norm_in_gain, self.norm_in_bias)
        local, lwrites = self._local_branch(x, t_steps, picks, labels, capture)
        glob, gwrites = self._global_branch(x, t_steps, mode, labels, capture)
        f = ad.add(local, glob)
        y = ad.layernorm_rows(f, self.norm_mlp_gain, self.norm_mlp_bias)
        hidden = ad.gelu(ad.matmul(y, self.W1, self.b1))
        mlp_out = ad.matmul(hidden, self.W2, self.b2)
        return ad.add(tokens, mlp_out), (None if picks is None else (lwrites, gwrites))

    def _write(self, writes):
        lwrites, gwrites = writes
        self.bank_local.write(*lwrites)
        self.bank_global.write(*gwrites)

    def forward(self, tokens, t_steps, mode, labels=None, rng=None, capture=None):
        """(B, N, D_emb) in, same shape out; writes banks in train mode only."""
        check_train_inputs(mode, labels, rng)
        picks = self._write_tokens(len(tokens.value), rng) if mode == "train" else None
        out, writes = self._forward(tokens, t_steps, picks, labels, capture)
        if writes is not None:
            # reads above all saw the bank as it stood before this batch
            self._write(writes)
        return out


def check_train_inputs(mode, labels, rng):
    """Raise ValueError for a train forward that lacks the labels or rng its
    bank writes need, before any draw or write."""
    if mode == "train" and labels is None:
        raise ValueError("train mode needs one label per image for bank writes")
    if mode == "train" and rng is None:
        raise ValueError("train mode needs an rng for write-token sampling")
