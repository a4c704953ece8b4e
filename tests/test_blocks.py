"""Block-level invariants: branch wiring, bank read/write discipline."""

import contextlib

import numpy as np
import pytest

import hmn.autodiff as ad
import hmn.memory
import hmn.retrieval
from hmn.blocks import HMNBlock
from hmn.config import RunConfig
from hmn.model import Model
from hmn.train import train_step

from conftest import total


def block_cfg(**overrides):
    base = dict(
        dataset="synth_blobs",
        image_size=[4, 4],
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
    return RunConfig(**base)


def make_block(seed=0, **overrides):
    cfg = block_cfg(**overrides)
    return cfg, HMNBlock(cfg, np.random.default_rng(seed), np.float64)


def make_model(seed=0, **overrides):
    """A one-block float64 model, for what only the model does: drawing
    write tokens and writing the banks."""
    cfg = block_cfg(**overrides)
    return cfg, Model(cfg, np.random.default_rng(seed), dtype=np.float64)


def images_for(cfg, batch, rng):
    return rng.standard_normal((batch, cfg.in_channels, *cfg.image_size))


def fill_banks(block, rng):
    for bank in (block.bank_local, block.bank_global):
        k = bank.total_slots
        bank.write(rng.standard_normal((k, bank.dim)), np.arange(k) % 2)


def tokens_for(cfg, batch, rng):
    return ad.Tensor(rng.standard_normal((batch, cfg.n_tokens, cfg.d_emb)))


def test_shape_contract(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    x = tokens_for(cfg, 3, rng)
    out = block.forward(x, 2)
    assert out.value.shape == x.value.shape


def test_zero_steps_equals_zero_beta_bitwise(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    x = tokens_for(cfg, 2, rng)
    out_t0 = block.forward(x, 0)
    block.beta_local.value = np.array([0.0])
    block.beta_global.value = np.array([0.0])
    out_b0 = block.forward(x, 3)
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

    x = tokens_for(cfg, 2, rng)
    block.forward(x, 0)
    assert calls == []

    block.beta_local.value = np.array([0.0])
    block.beta_global.value = np.array([0.0])
    block.forward(x, 3)
    assert calls == []

    # empty banks are skipped too, and the capture hook is handed no weights
    cfg2, fresh = make_block(seed=5)
    seen = []
    fresh.forward(x, 3, capture=lambda blk, branch, q, w: seen.append((blk, branch, w)))
    assert calls == []
    assert seen == [(fresh, "local", None), (fresh, "global", None)]

    # sanity: a live retrieval path does hit the spy
    block.beta_local.value = np.array([0.2])
    block.beta_global.value = np.array([0.2])
    block.forward(x, 1)
    assert len(calls) == 2  # one per branch


def test_empty_bank_forward_matches_zero_steps(rng):
    cfg, block = make_block()
    x = tokens_for(cfg, 2, rng)
    assert not block.bank_local.any_filled
    out_live = block.forward(x, 3)
    out_t0 = block.forward(x, 0)
    np.testing.assert_array_equal(out_live.value, out_t0.value)


def test_zeroed_mlp_makes_block_identity(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    block.W2.value = np.zeros_like(block.W2.value)
    block.b2.value = np.zeros_like(block.b2.value)
    x = tokens_for(cfg, 2, rng)
    out = block.forward(x, 2)
    np.testing.assert_array_equal(out.value, x.value)


def test_beta_is_a_one_element_vector():
    # a 0-d tensor stays 0-d, so β is built (1,): its checkpoint record and
    # Adam state have that shape
    _, block = make_block(beta_init=0.25)
    for beta in (block.beta_local, block.beta_global):
        assert beta.value.shape == (1,) and beta.value[0] == 0.25


def test_write_accounting(rng):
    cfg, model = make_model(write_sample=2, k_local=8, k_global=8)
    block = model.blocks[0]
    labels = np.array([0, 1, 0])
    model.forward(images_for(cfg, 3, rng), mode="train", labels=labels,
                  rng=np.random.default_rng(7))
    # 3 images * 2 sampled tokens, and one global write per image
    assert int(block.bank_local.filled.sum()) == 6
    assert int(block.bank_global.filled.sum()) == 3
    # class split follows the labels
    assert list(block.bank_local.filled) == [4, 2]
    assert list(block.bank_global.filled) == [2, 1]


def test_write_rows_are_each_images_picked_queries(rng):
    # the writer's one fancy index over the drawn tokens against the
    # per-image loop, taken from the reads of a block forward
    cfg, model = make_model(write_sample=2, k_local=8, k_global=8)
    block = model.blocks[0]
    x = tokens_for(cfg, 3, rng)
    picks = np.array([[[0, 3], [1, 2], [2, 3]]])
    writes = []
    writer = model._writer(picks, np.array([0, 1, 0]), writes)
    block.forward(x, 1, capture=writer)
    writer(model, "pool", None, ad.Tensor(np.ones((3, cfg.n_tokens))))  # queues nothing
    (bank, rows, cls), (gbank, grows, gcls) = writes
    xn = ad.layernorm_rows(x, block.norm_in_gain, block.norm_in_bias)
    q = ad.unfold_matmul(xn, block.h_p, block.w_p, cfg.k, block.W_loc_in, block.b_loc_in).value
    want = np.concatenate([q[i, picks[0, i]] for i in range(3)])
    assert bank is block.bank_local and gbank is block.bank_global
    assert not bank.any_filled and not gbank.any_filled  # queued, not written
    assert rows.tobytes() == want.tobytes()
    np.testing.assert_array_equal(cls, [0, 0, 1, 1, 0, 0])
    assert grows.shape == (3, cfg.d_lat)
    np.testing.assert_array_equal(gcls, [0, 1, 0])


@pytest.mark.parametrize("off", [dict(t_steps=0), dict(beta_init=0.0)], ids=["T0", "beta0"])
def test_unrefined_train_step_writes_the_rows_of_a_refined_one(rng, off):
    """The writes ride on the reads' capture calls, which refinement makes
    also where it reads no bank: a train step at T=0 or with β zeroed
    writes every bank as a T=1 step over the same filled banks does."""
    states = []
    for overrides in (dict(t_steps=1), off):
        cfg, model = make_model(write_sample=2, k_local=8, k_global=8, **overrides)
        batches = np.random.default_rng(4)
        for step in range(2):  # the first step fills the banks the second reads
            train_step(model, images_for(cfg, 3, batches), np.array([0, 1, 1]),
                       np.random.default_rng(step))
        states.append([bank.state_dict() for bank in model.banks().values()])
    assert all(bank.any_filled for bank in model.banks().values())
    for refined, unrefined in zip(*states):
        for field, arr in refined.items():
            assert arr.tobytes() == unrefined[field].tobytes(), field


def test_train_forward_writes_each_bank_once(rng, monkeypatch):
    cfg, model = make_model(write_sample=2, k_local=8, k_global=8)
    block = model.blocks[0]
    calls = []
    real = hmn.memory.MemoryBank.write

    def spy(bank, rows, class_ids):
        calls.append((bank, len(rows)))
        return real(bank, rows, class_ids)

    monkeypatch.setattr(hmn.memory.MemoryBank, "write", spy)
    x = images_for(cfg, 3, rng)
    model.forward(x)
    assert calls == []
    model.forward(x, mode="train", labels=np.array([0, 1, 0]),
                  rng=np.random.default_rng(7))
    assert calls == [(block.bank_local, 6), (block.bank_global, 3)]


def test_reads_see_prebatch_bank_state(rng):
    """First train-mode batch on an empty bank retrieves nothing, so its
    output matches a no-retrieval forward even though writes then land."""
    cfg, model = make_model()
    # a nonzero head, so the logits depend on the block's output
    model.head_w.value = rng.standard_normal(model.head_w.shape)
    x = images_for(cfg, 2, rng)
    out_eval = model.forward(x, t_override=0)
    out_train = model.forward(x, mode="train", labels=np.array([0, 1]),
                              rng=np.random.default_rng(3), t_override=3)
    np.testing.assert_array_equal(out_train.value, out_eval.value)
    assert model.blocks[0].bank_local.any_filled  # the writes did happen


def test_global_addend_uniform_within_image(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    x = tokens_for(cfg, 2, rng)
    out = block._global_branch(x, 2, None)
    # one row per image, which the branch sum broadcasts to every token
    assert out.shape == (2, 1, cfg.d_emb)
    addend = ad.add(ad.Tensor(np.zeros(x.shape)), out).value
    for g in range(2):
        rows = addend[g]
        assert (rows == rows[0]).all()


def test_global_branch_permutation_invariant_within_image(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    xv = rng.standard_normal((2, cfg.n_tokens, cfg.d_emb))
    perm = xv.copy()
    perm[0] = xv[0][::-1]
    a = block._global_branch(ad.Tensor(xv), 1, None)
    b = block._global_branch(ad.Tensor(perm), 1, None)
    np.testing.assert_allclose(a.value, b.value, atol=1e-12)


def recorder():
    """(reads, hook): the hook appends each read it is handed as (block,
    branch, queries, alpha), alpha None where refinement read no bank."""
    reads = []

    def hook(blk, branch, q, weights):
        reads.append((blk, branch, q.value, None if weights is None else weights.value))
    return reads, hook


def test_capture_records_retrieval_weights(rng):
    cfg, block = make_block()
    fill_banks(block, rng)
    x = tokens_for(cfg, 2, rng)
    reads, hook = recorder()
    block.forward(x, 2, capture=hook)
    assert [(blk, branch) for blk, branch, _, _ in reads] == [(block, "local"),
                                                              (block, "global")]
    (_, _, q, local), (_, _, qg, glob) = reads
    assert q.shape == (2, cfg.n_tokens, cfg.d_lat) and qg.shape == (2, 1, cfg.d_lat)
    assert local.shape == (2, cfg.n_tokens, cfg.k_local)
    assert glob.shape == (2, 1, cfg.k_global)
    np.testing.assert_allclose(glob.sum(axis=-1), np.ones((2, 1)), rtol=1e-12)

    # T=0 reads no bank: the hook gets the queries and no weights
    reads, hook = recorder()
    block.forward(x, 0, capture=hook)
    assert [(q.shape, alpha) for _, _, q, alpha in reads] == [
        ((2, cfg.n_tokens, cfg.d_lat), None), ((2, 1, cfg.d_lat), None)]


def rerun_reads(block, tokens, t_steps, beta):
    """(queries, alpha) per branch from a second, detached refinement of
    each branch's queries, stepped in plain numpy: the last step's alpha,
    None when refinement reads no bank (T=0 or β=0)."""
    cfg = block.cfg
    x = ad.layernorm_rows(tokens, block.norm_in_gain, block.norm_in_bias)
    q = ad.unfold_matmul(x, block.h_p, block.w_p, cfg.k, block.W_loc_in, block.b_loc_in)
    g = ad.mean_rows(x)
    qg = ad.matmul(g, block.W_glob_in, block.b_glob_in)
    out = []
    for query, bank in ((q, block.bank_local), (qg, block.bank_global)):
        z, alpha = ad.Tensor(query.value), None
        for _ in range(t_steps if beta else 0):
            alpha, m = hmn.retrieval.retrieve_rows(z, bank)
            z = ad.Tensor(z.value + beta * (m.value - z.value))
        out.append((query.value, None if alpha is None else alpha.value))
    return out


def partly_fill_banks(block, rng):
    for bank in (block.bank_local, block.bank_global):
        bank.write(rng.standard_normal((3, bank.dim)), [0, 0, 1])


@pytest.mark.parametrize("fill", [fill_banks, partly_fill_banks])
@pytest.mark.parametrize("t_steps,beta", [(0, 0.3), (3, 0.3), (3, 0.0)])
def test_capture_reuses_the_refinement_weights(rng, fill, t_steps, beta):
    cfg, block = make_block(k_local=8, k_global=6)
    fill(block, rng)
    block.beta_local.value = np.float64(beta)
    block.beta_global.value = np.float64(beta)
    x = tokens_for(cfg, 3, rng)
    want = rerun_reads(block, x, t_steps, beta)
    for scope in (ad.no_grad, contextlib.nullcontext):
        reads, hook = recorder()
        with scope():
            block.forward(x, t_steps, capture=hook)
        assert len(reads) == len(want)
        for (_, _, q, alpha), (want_q, want_alpha) in zip(reads, want):
            np.testing.assert_array_equal(q, want_q)
            assert (alpha is None) == (want_alpha is None)
            if alpha is not None:
                np.testing.assert_array_equal(alpha, want_alpha)


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
    for capture in (None, recorder()[1]):
        ad.zero_grad(params)
        out = block.forward(x, t_steps, capture=capture)
        ad.backward(total(ad.matmul(out, proj)))
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


def test_block_gradients_match_finite_differences(rng):
    cfg, block = make_block(seed=2)
    fill_banks(block, np.random.default_rng(9))
    x = ad.Tensor(rng.standard_normal((2, cfg.n_tokens, cfg.d_emb)))
    proj = ad.Tensor(rng.standard_normal((cfg.d_emb, 1)))
    params = list(block.parameters("b").values()) + [x]

    def build():
        out = block.forward(x, 2)
        return total(ad.matmul(out, proj))

    assert ad.check_gradients(build, params, step=1e-6) < 1e-5
