"""One model block: local and global memory branches fused into an MLP.

Local branch: unfold each token's k×k neighborhood, project to the latent
space, refine against the block's local bank, concat the refined and raw
queries, project back. Global branch: mean-pool the image's tokens, same
treatment against the global bank, broadcast to all tokens. The branch sum
feeds a two-layer MLP whose output rides a skip connection from the block
input. In train mode the detached queries are written to the banks after
both branches have read, so retrieval always sees pre-batch state.
"""

from collections import OrderedDict

import numpy as np

from . import autodiff as ad
from .memory import MemoryBank
from .retrieval import refine_rows, retrieve_rows


def _linear(rng, fan_in, fan_out):
    return ad.Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)),
                     requires_grad=True)


def _vec(value, n):
    return ad.Tensor(np.full(n, float(value)), requires_grad=True)


class HMNBlock:
    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.h_p, self.w_p = cfg.grid_shape
        self.n_tokens = cfg.n_tokens
        k, d_e, d_l, r = cfg.k, cfg.d_emb, cfg.d_lat, cfg.mlp_ratio
        self.W_loc_in = _linear(rng, k * k * d_e, d_l)
        self.b_loc_in = _vec(0.0, d_l)
        self.W_loc_out = _linear(rng, 2 * d_l, d_e)
        self.b_loc_out = _vec(0.0, d_e)
        self.W_glob_in = _linear(rng, d_e, d_l)
        self.b_glob_in = _vec(0.0, d_l)
        self.W_glob_out = _linear(rng, 2 * d_l, d_e)
        self.b_glob_out = _vec(0.0, d_e)
        self.beta_local = ad.Tensor(np.float64(cfg.beta_init), requires_grad=True)
        self.beta_global = ad.Tensor(np.float64(cfg.beta_init), requires_grad=True)
        self.W1 = _linear(rng, d_e, r * d_e)
        self.b1 = _vec(0.0, r * d_e)
        self.W2 = _linear(rng, r * d_e, d_e)
        self.b2 = _vec(0.0, d_e)
        if cfg.use_norm:
            self.norm_in_gain = _vec(1.0, d_e)
            self.norm_in_bias = _vec(0.0, d_e)
            self.norm_mlp_gain = _vec(1.0, d_e)
            self.norm_mlp_bias = _vec(0.0, d_e)
        self.bank_local = MemoryBank(cfg.num_classes, cfg.k_local, d_l)
        self.bank_global = MemoryBank(cfg.num_classes, cfg.k_global, d_l)

    def parameters(self, prefix):
        names = ["W_loc_in", "b_loc_in", "W_loc_out", "b_loc_out",
                 "W_glob_in", "b_glob_in", "W_glob_out", "b_glob_out",
                 "beta_local", "beta_global", "W1", "b1", "W2", "b2"]
        if self.cfg.use_norm:
            names += ["norm_in_gain", "norm_in_bias", "norm_mlp_gain", "norm_mlp_bias"]
        return OrderedDict((f"{prefix}.{n}", getattr(self, n)) for n in names)

    def _refine(self, q, bank, beta, t_steps, groups, capture, key):
        """Refined queries; with capture, also keep the retrieval weights.

        The captured weights are the last refinement step's alpha. When
        refinement never reads the bank (T=0 or β=0) a plain diagnostic
        retrieval stands in; an empty bank captures None.
        """
        # recording a trace makes refinement read the bank even at β=0, which
        # would give β a gradient; record one only where it reads the bank anyway
        traced = (capture is not None and t_steps > 0
                  and float(beta.value.reshape(())) != 0.0)
        z, trace = refine_rows(q, bank, beta, t_steps, groups=groups, record_trace=traced)
        if capture is not None:
            alpha = trace.alphas[-1] if traced else None
            if alpha is None:
                alpha, _ = retrieve_rows(q.detach(), bank, groups=groups)
                alpha = None if alpha is None else alpha.value
            capture[key] = alpha
        return z

    def _local_branch(self, x, groups, t_steps, mode, labels, rng, capture):
        u = ad.unfold_tokens(x, self.h_p, self.w_p, self.cfg.k)
        q = ad.add_bias(ad.matmul(u, self.W_loc_in, groups=groups), self.b_loc_in)
        z = self._refine(q, self.bank_local, self.beta_local, t_steps, groups, capture,
                         "local_alpha")
        out = ad.add_bias(ad.matmul(ad.concat_last_axis(z, q), self.W_loc_out, groups=groups),
                          self.b_loc_out)
        writes = []
        if mode == "train":
            s = self.cfg.write_sample
            n = self.n_tokens
            for i in range(groups):
                picked = np.sort(rng.choice(n, size=s, replace=False))
                for j in picked:
                    writes.append((q.value[i * n + j].copy(), int(labels[i])))
        return out, writes

    def _global_branch(self, x, groups, t_steps, mode, labels, capture):
        g = ad.mean_rows(x, groups=groups)
        qg = ad.add_bias(ad.matmul(g, self.W_glob_in, groups=groups), self.b_glob_in)
        zg = self._refine(qg, self.bank_global, self.beta_global, t_steps, groups, capture,
                          "global_alpha")
        row = ad.add_bias(ad.matmul(ad.concat_last_axis(zg, qg), self.W_glob_out, groups=groups),
                          self.b_glob_out)
        out = ad.repeat_rows_each(row, self.n_tokens)
        writes = []
        if mode == "train":
            for i in range(groups):
                writes.append((qg.value[i].copy(), int(labels[i])))
        return out, writes

    def forward(self, tokens, groups, t_steps, mode, labels=None, rng=None, capture=None):
        """(B·N, D_emb) in, same shape out; writes banks in train mode."""
        if mode == "train":
            if labels is None:
                raise ValueError("train mode needs one label per image for bank writes")
            if rng is None:
                raise ValueError("train mode needs an rng for write-token sampling")
        if self.cfg.use_norm:
            x = ad.layernorm_rows(tokens, self.norm_in_gain, self.norm_in_bias)
        else:
            x = tokens
        local, lwrites = self._local_branch(x, groups, t_steps, mode, labels, rng, capture)
        glob, gwrites = self._global_branch(x, groups, t_steps, mode, labels, capture)
        f = ad.add(local, glob)
        if self.cfg.use_norm:
            y = ad.layernorm_rows(f, self.norm_mlp_gain, self.norm_mlp_bias)
        else:
            y = f
        hidden = ad.gelu(ad.add_bias(ad.matmul(y, self.W1, groups=groups), self.b1))
        mlp_out = ad.add_bias(ad.matmul(hidden, self.W2, groups=groups), self.b2)
        out = ad.add(tokens, mlp_out)
        # reads above all saw the bank as it stood before this batch
        for emb, label in lwrites:
            self.bank_local.write(emb, label)
        for emb, label in gwrites:
            self.bank_global.write(emb, label)
        return out
