"""Block-level invariants: branch wiring, bank read/write discipline."""

import contextlib

import numpy as np
import pytest

import hmn.autodiff as ad
import hmn.blocks
import hmn.retrieval
from hmn.blocks import HMNBlock
from hmn.config import RunConfig


def block_cfg(**overrides):
    base = dict(
        dataset="synth_blobs",
        image_size=[4, 4],
        in_channels=1,
        patch_size=2,
        d_emb=4,
        d_lat=3,
        n_blocks=1,
        k=3,
        mlp_ratio=2,
        k_local=4,
        k_global=4,
        t_steps=2,
        write_sample=1,
        synth_classes=2,
    )
    base.update(overrides)
    return RunConfig(**base).resolve()


def make_block(seed=0, **overrides):
    cfg = block_cfg(**overrides)
    return cfg, HMNBlock(cfg, np.random.default_rng(seed))


def fill_banks(block, rng):
    for i in range(block.bank_local.total_slots):
        block.bank_local.write(rng.standard_normal(block.bank_local.dim), i % 2)
    for i in range(block.bank_global.total_slots):
        block.bank_global.write(rng.standard_normal(block.bank_global.dim), i % 2)


def tokens_for(cfg, batch, rng):
    return ad.Tensor(rng.standard_normal((batch * cfg.n_tokens, cfg.d_emb)))


def test_shape_contract(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    x = tokens_for(cfg, 3, rng)
    out = block.forward(x, groups=3, t_steps=2, mode="eval")
    assert out.value.shape == x.value.shape


def test_zero_steps_equals_zero_beta_bitwise(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    x = tokens_for(cfg, 2, rng)
    out_t0 = block.forward(x, groups=2, t_steps=0, mode="eval")
    block.beta_local.value = np.array([0.0])
    block.beta_global.value = np.array([0.0])
    out_b0 = block.forward(x, groups=2, t_steps=3, mode="eval")
    np.testing.assert_array_equal(out_t0.value, out_b0.value)


def test_banks_not_read_on_short_circuit(rng, monkeypatch):
    cfg, block = make_block()
    fill_banks(block, rng)
    calls = []
    real = hmn.retrieval.retrieve_rows

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hmn.retrieval, "retrieve_rows", spy)
    monkeypatch.setattr(hmn.blocks, "retrieve_rows", spy)

    x = tokens_for(cfg, 2, rng)
    block.forward(x, groups=2, t_steps=0, mode="eval")
    assert calls == []

    block.beta_local.value = np.array([0.0])
    block.beta_global.value = np.array([0.0])
    block.forward(x, groups=2, t_steps=3, mode="eval")
    assert calls == []

    # sanity: a live retrieval path does hit the spy
    block.beta_local.value = np.array([0.2])
    block.beta_global.value = np.array([0.2])
    block.forward(x, groups=2, t_steps=1, mode="eval")
    assert len(calls) == 2  # one per branch


def test_empty_bank_forward_matches_zero_steps(rng):
    cfg, block = make_block()
    x = tokens_for(cfg, 2, rng)
    assert not block.bank_local.any_filled
    out_live = block.forward(x, groups=2, t_steps=3, mode="eval")
    out_t0 = block.forward(x, groups=2, t_steps=0, mode="eval")
    np.testing.assert_array_equal(out_live.value, out_t0.value)


def test_zeroed_mlp_makes_block_identity(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    block.W2.value = np.zeros_like(block.W2.value)
    block.b2.value = np.zeros_like(block.b2.value)
    x = tokens_for(cfg, 2, rng)
    out = block.forward(x, groups=2, t_steps=2, mode="eval")
    np.testing.assert_array_equal(out.value, x.value)


def test_write_accounting(rng):
    cfg, block = make_block(write_sample=2, k_local=8, k_global=8)
    labels = np.array([0, 1, 0])
    x = tokens_for(cfg, 3, rng)
    block.forward(x, groups=3, t_steps=1, mode="train", labels=labels,
                  rng=np.random.default_rng(7))
    # 3 images * 2 sampled tokens, and one global write per image
    assert int(block.bank_local.filled.sum()) == 6
    assert int(block.bank_global.filled.sum()) == 3
    # class split follows the labels
    assert list(block.bank_local.filled) == [4, 2]
    assert list(block.bank_global.filled) == [2, 1]


def test_reads_see_prebatch_bank_state(rng):
    """First train-mode batch on an empty bank retrieves nothing, so its
    output matches a no-retrieval forward even though writes then land."""
    cfg, block = make_block()
    x = tokens_for(cfg, 2, rng)
    out_eval = block.forward(x, groups=2, t_steps=0, mode="eval")
    out_train = block.forward(x, groups=2, t_steps=3, mode="train",
                              labels=np.array([0, 1]), rng=np.random.default_rng(3))
    np.testing.assert_array_equal(out_train.value, out_eval.value)
    assert block.bank_local.any_filled  # the writes did happen


def test_train_mode_requires_labels_and_rng(rng):
    cfg, block = make_block()
    x = tokens_for(cfg, 1, rng)
    with pytest.raises(ValueError):
        block.forward(x, groups=1, t_steps=1, mode="train")
    with pytest.raises(ValueError):
        block.forward(x, groups=1, t_steps=1, mode="train", labels=np.array([0]))


def test_global_addend_uniform_within_image(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    x = tokens_for(cfg, 2, rng)
    out, _ = block._global_branch(x, groups=2, t_steps=2, mode="eval",
                                  labels=None, capture=None)
    n = cfg.n_tokens
    for g in range(2):
        rows = out.value[g * n:(g + 1) * n]
        assert (rows == rows[0]).all()


def test_global_branch_permutation_invariant_within_image(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    xv = rng.standard_normal((2 * cfg.n_tokens, cfg.d_emb))
    perm = xv.copy()
    perm[:cfg.n_tokens] = xv[:cfg.n_tokens][::-1]
    a, _ = block._global_branch(ad.Tensor(xv), groups=2, t_steps=1, mode="eval",
                                labels=None, capture=None)
    b, _ = block._global_branch(ad.Tensor(perm), groups=2, t_steps=1, mode="eval",
                                labels=None, capture=None)
    np.testing.assert_allclose(a.value, b.value, atol=1e-12)


def test_capture_records_retrieval_weights(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    x = tokens_for(cfg, 2, rng)
    capture = {}
    block.forward(x, groups=2, t_steps=2, mode="eval", capture=capture)
    assert capture["local_alpha"].shape == (2 * cfg.n_tokens, cfg.k_local)
    assert capture["global_alpha"].shape == (2, cfg.k_global)
    np.testing.assert_allclose(capture["global_alpha"].sum(axis=1), np.ones(2), rtol=1e-12)

    # T=0 still captures a diagnostic retrieval
    capture = {}
    block.forward(x, groups=2, t_steps=0, mode="eval", capture=capture)
    assert capture["global_alpha"].shape == (2, cfg.k_global)

    # empty banks capture None
    cfg2, fresh = make_block(seed=5)
    capture = {}
    fresh.forward(x, groups=2, t_steps=2, mode="eval", capture=capture)
    assert capture["local_alpha"] is None and capture["global_alpha"] is None


def rerun_alpha(block, tokens, groups, t_steps):
    """Captured weights from a second, detached refinement of each branch's
    queries: the last step's alpha, or a plain retrieval when that is None."""
    cfg = block.cfg
    x = ad.layernorm_rows(tokens, block.norm_in_gain, block.norm_in_bias)
    u = ad.unfold_tokens(x, block.h_p, block.w_p, cfg.k)
    q = ad.add_bias(ad.matmul(u, block.W_loc_in, groups=groups), block.b_loc_in)
    g = ad.mean_rows(x, groups=groups)
    qg = ad.add_bias(ad.matmul(g, block.W_glob_in, groups=groups), block.b_glob_in)
    out = {}
    for key, query, bank, beta in (("local_alpha", q, block.bank_local, block.beta_local),
                                   ("global_alpha", qg, block.bank_global, block.beta_global)):
        _, trace = hmn.retrieval.refine_rows(query.detach(), bank, beta.detach(), t_steps,
                                             groups=groups, record_trace=True)
        if trace.alphas and trace.alphas[-1] is not None:
            out[key] = trace.alphas[-1]
        else:
            alpha, _ = hmn.retrieval.retrieve_rows(query.detach(), bank, groups=groups)
            out[key] = None if alpha is None else alpha.value
    return out


def partly_fill_banks(block, rng):
    for bank in (block.bank_local, block.bank_global):
        for label in (0, 0, 1):
            bank.write(rng.standard_normal(bank.dim), label)


@pytest.mark.parametrize("fill", [fill_banks, partly_fill_banks])
@pytest.mark.parametrize("t_steps,beta", [(0, 0.3), (3, 0.3), (3, 0.0)])
def test_capture_reuses_the_refinement_weights(rng, fill, t_steps, beta):
    cfg, block = make_block(k_local=8, k_global=6)
    fill(block, rng)
    block.beta_local.value = np.float64(beta)
    block.beta_global.value = np.float64(beta)
    x = tokens_for(cfg, 3, rng)
    want = rerun_alpha(block, x, 3, t_steps)
    for scope in (ad.no_grad, contextlib.nullcontext):
        capture = {}
        with scope():
            block.forward(x, groups=3, t_steps=t_steps, mode="eval", capture=capture)
        assert set(capture) == {"local_alpha", "global_alpha"}
        for key in capture:
            np.testing.assert_array_equal(capture[key], want[key])


@pytest.mark.parametrize("t_steps,beta", [(0, 0.3), (3, 0.3), (3, 0.0)])
def test_capture_leaves_outputs_and_gradients_unchanged(rng, t_steps, beta):
    cfg, block = make_block(k_local=8, k_global=6)
    partly_fill_banks(block, rng)
    block.beta_local.value = np.float64(beta)
    block.beta_global.value = np.float64(beta)
    x = tokens_for(cfg, 2, rng)
    proj = ad.Tensor(rng.standard_normal((cfg.d_emb, 1)))
    params = list(block.parameters("b").values())
    runs = []
    for capture in (None, {}):
        ad.zero_grad(params)
        out = block.forward(x, groups=2, t_steps=t_steps, mode="eval", capture=capture)
        ad.backward(ad.sum_all(ad.matmul(out, proj)))
        runs.append((out.value, [p.grad for p in params]))
    (plain, plain_grads), (captured, captured_grads) = runs
    np.testing.assert_array_equal(captured, plain)
    for a, b in zip(captured_grads, plain_grads):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


def test_parameter_registry_order_and_count():
    cfg, block = make_block()
    names = list(block.parameters("blocks.0"))
    assert names[0] == "blocks.0.W_loc_in"
    assert names[8] == "blocks.0.beta_local"
    assert len(names) == 18  # 14 + 4 norm affines
    cfg2, plain = make_block(use_norm=False)
    assert len(plain.parameters("b")) == 14


def test_block_gradients_match_finite_differences(rng):
    cfg, block = make_block(seed=2)
    fill_banks(block, np.random.default_rng(9))
    block.bank_local.freeze()
    block.bank_global.freeze()
    x = ad.Tensor(rng.standard_normal((2 * cfg.n_tokens, cfg.d_emb)))
    proj = ad.Tensor(rng.standard_normal((cfg.d_emb, 1)))
    params = list(block.parameters("b").values()) + [x]

    def build():
        out = block.forward(x, groups=2, t_steps=2, mode="eval")
        return ad.sum_all(ad.matmul(out, proj))

    assert ad.check_gradients(build, params, step=1e-6) < 1e-5
