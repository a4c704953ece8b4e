"""Float32 compute end to end, and float64 wherever gradients are checked.

Every op builds its result tensor through autodiff._node, so recording
that one function's outputs sees every op's dtype.
"""

import numpy as np
import pytest

import hmn.autodiff as ad
import hmn.gradcheck as gradcheck_mod
from hmn.data import load_dataset, standardize
from hmn.model import Model
from hmn.optim import Adam
from hmn.train import eval_batches, evaluate

from conftest import make_tiny_cfg


@pytest.fixture
def op_dtypes(monkeypatch):
    """{op name: set of output dtypes} over every op run in the test."""
    seen = {}
    node = ad._node

    def recording(value, parents, bwd, name):
        out = node(value, parents, bwd, name)
        seen.setdefault(name, set()).add(out.value.dtype)
        return out

    monkeypatch.setattr(ad, "_node", recording)
    return seen


def other_dtypes(op_dtypes, dtype):
    return {name: d for name, d in op_dtypes.items() if d != {np.dtype(dtype)}}


def test_default_model_computes_in_float32(tmp_path, op_dtypes):
    cfg = make_tiny_cfg(tmp_path, n_blocks=2, t_steps=2)
    rng = np.random.default_rng(0)
    model = Model(cfg, rng)
    params = model.parameters()
    opt = Adam(params, lr=1e-3, weight_decay=1e-4)
    train, test = load_dataset(cfg)
    x = standardize(train.images[:4], cfg.norm_mean, cfg.norm_std)
    labels = train.labels[:4]
    # the second step reads the banks the first one wrote
    for _ in range(2):
        loss = ad.cross_entropy(model.forward(x, mode="train", labels=labels, rng=rng), labels)
        ad.zero_grad(params.values())
        ad.backward(loss)
        opt.step()
    for name, t in params.items():
        assert t.grad.dtype == np.float32, name
        assert t.value.dtype == np.float32, name
        assert opt.m[name].dtype == opt.v[name].dtype == np.float32, name
    evaluate(model, test)
    reads = []
    for _, logits in eval_batches(model, test, capture=lambda *read: reads.append(read)):
        assert logits.dtype == np.float32
    for _, name, q, weights in reads:
        for arr in (weights.value,) if name == "pool" else (q.value, weights.value):
            assert arr.dtype == np.float32, name
    for name, bank in model.banks().items():
        assert bank.any_filled and bank.slots.dtype == np.float32, name
    assert {"gelu", "memory_read", "hopfield_update", "unfold_matmul",
            "layernorm_rows", "cross_entropy"} <= set(op_dtypes)
    assert other_dtypes(op_dtypes, np.float32) == {}


def test_gradcheck_model_computes_in_float64(op_dtypes, monkeypatch):
    models = []

    def keep(*args, **kwargs):
        models.append(Model(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(gradcheck_mod, "Model", keep)
    assert gradcheck_mod.model_gradcheck(t_steps=1) < 1e-4
    (model,) = models
    for name, t in model.parameters().items():
        assert t.value.dtype == t.grad.dtype == np.float64, name
    for name, bank in model.banks().items():
        assert bank.slots.dtype == np.float64, name
    assert "memory_read" in op_dtypes
    assert other_dtypes(op_dtypes, np.float64) == {}
