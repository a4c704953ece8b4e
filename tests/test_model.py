"""Model wiring, pooling, and the binary checkpoint format."""

import contextlib
import os
import struct
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hmn.autodiff as ad
import hmn.model as model_mod
from hmn import _blas
from hmn.analysis import hit_rate
from hmn.config import RunConfig
from hmn.data import Dataset, load_dataset, standardize
from hmn.memory import MemoryBank
from hmn.model import MAGIC, Model, load_checkpoint, save_checkpoint
from hmn.optim import Adam
from hmn.train import eval_batches, evaluate, train_step

from conftest import assert_same_bits, make_tiny_cfg

POOL_E = 0.7310585786300048792511592  # e/(e+1) to 25 digits


def tiny_model(tmp_path, **overrides):
    cfg = make_tiny_cfg(tmp_path, **overrides)
    return cfg, Model(cfg)


def std_images(cfg, batch, rng):
    return rng.standard_normal((batch, cfg.in_channels, *cfg.image_size))


def recorder(model):
    """(reads, hook): a capture hook that forms and keeps every read it is
    handed, per key (block index, branch) or "pool"; alpha is None where
    refinement read no bank."""
    reads = {}

    def hook(owner, name, q, weights):
        key = name if name == "pool" else (model.blocks.index(owner), name)
        reads.setdefault(key, []).append(None if weights is None else weights.value)
    return reads, hook


def captured(model, imgs):
    """(logits, reads): an eval forward under a recorder, each key's chunks
    concatenated; a key whose reads are None maps to None."""
    reads, hook = recorder(model)
    logits = model.forward(imgs, capture=hook).value
    return logits, {key: None if parts[0] is None else np.concatenate(parts)
                    for key, parts in reads.items()}


def fill_via_training_steps(cfg, model, rng, steps=2, batch=4):
    for _ in range(steps):
        imgs = std_images(cfg, batch, rng)
        labels = rng.integers(0, cfg.num_classes, size=batch)
        train_step(model, imgs, labels, rng)
    ad.zero_grad(model.parameters().values())
    # the head starts at zero, which would blank the logits and make
    # output comparisons vacuous
    for t in (model.head_w, model.head_b):
        t.value = rng.normal(0.0, 0.5, size=t.value.shape).astype(model.dtype)


# ------------------------------------------------------------------ patching

def test_token_counts():
    c32 = RunConfig(dataset="cifar10", patch_size=4)
    assert c32.n_tokens == 64
    c28 = RunConfig(dataset="fashion_mnist", patch_size=4)
    assert c28.n_tokens == 49


def test_patchify_layout(tmp_path):
    cfg, model = tiny_model(tmp_path, image_size=[4, 4], patch_size=2)
    img = np.zeros((1, 1, 4, 4))
    for y in range(4):
        for x in range(4):
            img[0, 0, y, x] = 10 * y + x
    rows = model._patchify(img)[0]
    assert rows.shape == (4, 4)
    # patches scan row-major over the grid; each is (C, P, P) flattened
    np.testing.assert_array_equal(rows[0], [0, 1, 10, 11])
    np.testing.assert_array_equal(rows[1], [2, 3, 12, 13])
    np.testing.assert_array_equal(rows[2], [20, 21, 30, 31])
    np.testing.assert_array_equal(rows[3], [22, 23, 32, 33])


def test_patchify_channel_major():
    cfg = RunConfig(dataset="cifar10", patch_size=16, d_emb=8, d_lat=6, n_blocks=1,
                    k_local=10, k_global=10)
    model = Model(cfg)
    img = np.zeros((1, 3, 32, 32))
    for c in range(3):
        img[0, c] = c + 1.0
    rows = model._patchify(img)[0]
    assert rows.shape == (4, 3 * 16 * 16)
    np.testing.assert_array_equal(rows[0], np.repeat([1.0, 2.0, 3.0], 16 * 16))


def test_input_shape_validation(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    with pytest.raises(ValueError):
        model.forward(rng.standard_normal((1, 3, 8, 8)))
    with pytest.raises(ValueError):
        model.forward(rng.standard_normal((1, 1, 8, 12)))
    with pytest.raises(ValueError):
        model.forward(rng.standard_normal((1, 1, 8, 8)), mode="predict")
    with pytest.raises(ValueError, match="batch"):
        model.forward(rng.standard_normal((1, 8, 8)))  # one image, no batch axis
    for mode in ("eval", "train"):  # no image at all
        with pytest.raises(ValueError, match="nonempty"):
            model.forward(np.zeros((0, 1, 8, 8)), mode=mode, labels=np.zeros(0, int), rng=rng)


def model_state(model):
    """Each bank's slot array with copies of its bytes and write counts, and
    a copy of each parameter value."""
    banks = {n: (b.slots, b.slots.copy(), b.written.copy()) for n, b in model.banks().items()}
    return banks, {n: t.value.copy() for n, t in model.parameters().items()}


def assert_state_unchanged(model, state):
    banks, params = state
    for n, bank in model.banks().items():
        slots, raw, written = banks[n]
        assert bank.slots is slots, n
        assert bank.slots.tobytes() == raw.tobytes(), n
        np.testing.assert_array_equal(bank.written, written)
    for n, t in model.parameters().items():
        assert t.value.tobytes() == params[n].tobytes(), n


@pytest.mark.parametrize("t_steps", [0, 2])
@pytest.mark.parametrize("capture", [False, True], ids=["plain", "capture"])
@pytest.mark.parametrize("scope", [contextlib.nullcontext, ad.no_grad], ids=["graph", "no_grad"])
def test_eval_forward_changes_no_model_state(tmp_path, rng, scope, capture, t_steps):
    cfg, model = tiny_model(tmp_path, t_steps=t_steps)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    state = model_state(model)
    reads, hook = recorder(model)
    with scope():
        model.forward(std_images(cfg, 3, rng), capture=hook if capture else None)
    assert_state_unchanged(model, state)
    assert len(reads) == (2 * cfg.n_blocks + 1 if capture else 0)


def test_eval_forward_records_no_graph_and_restores_recording(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    logits = model.forward(std_images(cfg, 3, rng))
    assert not logits.requires_grad and logits._parents == ()
    assert ad._recording
    bad = std_images(cfg, 3, rng)
    bad[1, 0, 2, 3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        model.forward(bad)
    assert ad._recording
    w = ad.Tensor(np.ones(2), requires_grad=True)
    assert ad.add(w, w).requires_grad


@pytest.mark.parametrize("case", ["bad shape", "bad shape eval", "no labels", "no rng",
                                  "train capture"])
def test_rejected_forward_changes_no_model_state(tmp_path, rng, case):
    cfg, model = tiny_model(tmp_path)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    state = model_state(model)
    good, bad = std_images(cfg, 2, rng), rng.standard_normal((2, 1, 8, 12))
    labels = np.array([0, 1])
    kwargs = {"bad shape": dict(images=bad, mode="train", labels=labels, rng=rng),
              "bad shape eval": dict(images=bad, mode="eval"),
              "no labels": dict(images=good, mode="train", rng=rng),
              "no rng": dict(images=good, mode="train", labels=labels),
              "train capture": dict(images=good, mode="train", labels=labels, rng=rng,
                                    capture=lambda *event: events.append(event))}[case]
    events = []
    with pytest.raises(ValueError):
        model.forward(**kwargs)
    assert events == []
    assert_state_unchanged(model, state)


# ------------------------------------------------------------------- pooling

def test_two_way_pool_oracle(rng):
    rows = ad.Tensor(rng.standard_normal((1, 2, 3)))
    weights = ad.softmax_rows(ad.Tensor(np.array([[1.0, 0.0]])))
    pooled = ad.group_weighted_sum(weights, rows)
    want = POOL_E * rows.value[0, 0] + (1.0 - POOL_E) * rows.value[0, 1]
    np.testing.assert_allclose(pooled.value[0, 0], want, rtol=1e-12)


def test_zero_attention_pools_to_mean(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    model.W_att.value = np.zeros_like(model.W_att.value)
    _, reads = captured(model, std_images(cfg, 3, rng))
    np.testing.assert_array_equal(reads["pool"], np.full((3, cfg.n_tokens), 1.0 / cfg.n_tokens))


def test_pool_weights_sum_to_one(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    _, reads = captured(model, std_images(cfg, 2, rng))
    np.testing.assert_allclose(reads["pool"].sum(axis=1), np.ones(2), rtol=1e-12)


# ---------------------------------------------------------------- invariants

def test_fresh_model_loss_is_exactly_log_c(tmp_path, rng):
    cfg = make_tiny_cfg(tmp_path, synth_classes=5, k_local=10, k_global=10)
    images = std_images(cfg, 6, rng)
    # each dtype's own ln 5, exactly
    for dtype in (np.float32, np.float64):
        logits = Model(cfg, dtype=dtype).forward(images)
        assert (logits.value == 0.0).all()
        loss = ad.cross_entropy(logits, np.zeros(6, dtype=np.int64))
        assert loss.value.dtype == dtype
        assert loss.value.item() == float(np.log(dtype(5.0)))


def test_eval_is_deterministic_and_pure(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, 3, rng)
    state = model_state(model)
    a = model.forward(imgs).value
    b = model.forward(imgs).value
    np.testing.assert_array_equal(a, b)
    assert_state_unchanged(model, state)


def test_eval_batch_independence(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, 4, rng)
    whole = model.forward(imgs).value
    for i in range(4):
        alone = model.forward(imgs[i:i + 1]).value
        np.testing.assert_array_equal(whole[i], alone[0])


def test_desk_shape_batch_independence_without_graph(tmp_path, rng):
    # the benchmark's desk dimensions, with banks partly filled by one small
    # train step so retrieval runs its masked softmax
    cfg = RunConfig(dataset="synth_blobs", image_size=[28, 28], synth_classes=10,
                    d_emb=64, d_lat=64, n_blocks=4, k=3, k_local=500, k_global=200,
                    write_sample=4, out_dir=str(tmp_path))
    model = Model(cfg, np.random.default_rng(0))
    fill_via_training_steps(cfg, model, np.random.default_rng(5), steps=1, batch=6)
    for bank in model.banks().values():
        assert bank.any_filled and not bank.filled_view()[2].all()
    imgs = std_images(cfg, 5, rng)
    with ad.no_grad():
        whole = model.forward(imgs)
        mixed = model.forward(np.concatenate([imgs[2:], imgs[:2][::-1]])).value
        alone = model.forward(imgs[4:]).value
    assert not whole.requires_grad and whole._parents == ()
    np.testing.assert_array_equal(mixed[:3], whole.value[2:])
    np.testing.assert_array_equal(mixed[3:], whole.value[:2][::-1])
    np.testing.assert_array_equal(alone[0], whole.value[4])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_independence_across_a_tile_boundary(tmp_path, rng, dtype):
    # 16 + 3 images fill one forward GEMM tile and spill into a padded one
    cfg = make_tiny_cfg(tmp_path)
    model = Model(cfg, dtype=dtype)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, ad._TILE + 3, rng)
    with ad.no_grad():
        in_order = model.forward(imgs).value
        reversed_ = model.forward(imgs[::-1]).value[::-1]
        for i in range(len(imgs)):
            alone = model.forward(imgs[i:i + 1]).value
            np.testing.assert_array_equal(in_order[i], alone[0])
            np.testing.assert_array_equal(reversed_[i], alone[0])


@pytest.mark.parametrize("t_steps,dtype,filled", [
    (0, np.float32, True), (1, np.float32, True), (1, np.float64, True),
    (1, np.float32, False)], ids=["T0", "T1", "T1-float64", "empty-bank"])
def test_chunked_eval_forward_matches_whole_and_per_image_forwards(
        tmp_path, rng, t_steps, dtype, filled):
    # two full chunks and a short one; at T=0 or from an empty bank no block
    # reads, and the hook is handed None for every branch
    cfg = make_tiny_cfg(tmp_path, t_steps=t_steps)
    model = Model(cfg, dtype=dtype)
    if filled:
        fill_via_training_steps(cfg, model, np.random.default_rng(5))
    else:
        for t in (model.head_w, model.head_b):
            t.value = rng.normal(0.0, 0.5, size=t.value.shape).astype(model.dtype)
    b = 2 * model_mod._CHUNK + 5
    imgs = std_images(cfg, b, rng)
    logits, reads = captured(model, imgs)
    whole_reads, hook = recorder(model)
    with ad.no_grad():
        whole = model._forward(model._images(imgs), t_steps, hook).value
    singles = [captured(model, imgs[i:i + 1]) for i in range(b)]
    assert_same_bits(logits, whole)
    assert_same_bits(logits, np.concatenate([lg for lg, _ in singles]))
    assert len(reads) == 2 * cfg.n_blocks + 1
    for key, got in reads.items():
        (want,) = whole_reads[key]
        if key != "pool" and (t_steps == 0 or not filled):
            assert got is None and want is None
            assert all(r[key] is None for _, r in singles)
            continue
        assert_same_bits(got, want)
        assert_same_bits(got, np.concatenate([r[key] for _, r in singles]))


def test_eval_forward_memory_does_not_grow_with_the_batch(tmp_path, rng):
    # an unfold of k²·D = 144 floats per token against 16 input pixels: a
    # whole-batch forward's working set grows about 9× as fast as its input
    cfg = make_tiny_cfg(tmp_path, image_size=[16, 16], d_emb=16, d_lat=16,
                        k_local=64, k_global=16)
    model = Model(cfg)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    chunks = 8
    imgs = std_images(cfg, chunks * model_mod._CHUNK, rng)

    def peak(batches):
        tracemalloc.start()
        try:
            logits = [model.forward(x).value for x in batches]
            return tracemalloc.get_traced_memory()[1], logits[-1]
        finally:
            tracemalloc.stop()

    one = imgs[:model_mod._CHUNK]
    peak([one])  # warm up one-off allocations
    # concurrent lanes overlap differently from forward to forward, so the
    # one-chunk peak is the highest of as many forwards as the batch has chunks
    small, _ = peak([one] * chunks)
    large, logits = peak([imgs])
    assert large <= small + imgs.astype(np.float32).nbytes + logits.nbytes


@pytest.mark.parametrize("branch", ["global", "local"])
def test_captured_analysis_memory_does_not_grow_with_the_batch(tmp_path, branch):
    # 64 tokens of 16 features per 64-pixel image: a captured forward that
    # kept whole batches' weights would grow far faster than the batch input
    cfg, model = tiny_model(tmp_path, patch_size=1, d_emb=16, d_lat=16, k_local=64,
                            k_global=16)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    n = 8 * model_mod._CHUNK
    probe = Dataset(np.random.default_rng(1).random((n, cfg.in_channels, *cfg.image_size)),
                    np.arange(n) % cfg.num_classes, cfg.num_classes, "probe")

    def peak(batch_size):
        tracemalloc.start()
        try:
            hit_rate(model, probe, branch=branch, batch_size=batch_size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(model_mod._CHUNK)  # warm up one-off allocations
    small = peak(model_mod._CHUNK)
    assert peak(n) <= 1.5 * small


def test_t_override(tmp_path, rng):
    cfg, model = tiny_model(tmp_path, t_steps=2)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, 2, rng)
    base = model.forward(imgs).value
    same = model.forward(imgs, t_override=2).value
    off = model.forward(imgs, t_override=0).value
    np.testing.assert_array_equal(base, same)
    assert not np.array_equal(base, off)


def test_param_counts_formula(tmp_path):
    cfg, model = tiny_model(tmp_path)
    d_e, d_l, k, r = cfg.d_emb, cfg.d_lat, cfg.k, cfg.mlp_ratio
    fan = cfg.patch_size ** 2 * cfg.in_channels
    per_block = (k * k * d_e * d_l + d_l + 2 * d_l * d_e + d_e  # local in/out
                 + d_e * d_l + d_l + 2 * d_l * d_e + d_e        # global in/out
                 + 2                                            # betas
                 + d_e * r * d_e + r * d_e + r * d_e * d_e + d_e
                 + 4 * d_e)                                     # norm affines
    want = (fan * d_e + d_e + cfg.n_tokens * d_e
            + cfg.n_blocks * per_block + d_e + d_e * cfg.num_classes + cfg.num_classes)
    counts = model.param_counts()
    assert counts["learnable"] == want
    assert counts["bank_slots"] == cfg.n_blocks * (cfg.k_local + cfg.k_global) * d_l
    assert counts["total"] == counts["learnable"] + counts["bank_slots"]


# ---------------------------------------------------------------- checkpoint

def checkpointed(tmp_path, rng):
    cfg, model = tiny_model(tmp_path / "m")
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, rng=np.random.default_rng(42),
                    extra={"epoch": 3, "best_acc": 0.75})
    return cfg, model, path


def test_checkpoint_round_trip_forward(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    clone, extra, crng = load_checkpoint(path)
    assert extra == {"epoch": 3, "best_acc": 0.75}
    imgs = std_images(cfg, 3, rng)
    # storage is float32, the model's own dtype, so the round trip is exact
    np.testing.assert_array_equal(model.forward(imgs).value, clone.forward(imgs).value)
    clone2, _, _ = load_checkpoint(path)
    np.testing.assert_array_equal(clone.forward(imgs).value, clone2.forward(imgs).value)
    # the restored rng continues the saved stream
    want = np.random.default_rng(42)
    assert crng.bit_generator.state == want.bit_generator.state


def test_checkpoint_restores_every_bank_in_its_block(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    clone, _, _ = load_checkpoint(path)
    banks = clone.banks()
    for i, blk in enumerate(clone.blocks):
        assert banks[f"block{i}.local"] is blk.bank_local
        assert banks[f"block{i}.global"] is blk.bank_global
    for name, bank in model.banks().items():
        got = banks[name]
        np.testing.assert_array_equal(got.slots, bank.slots.astype(np.float32))
        np.testing.assert_array_equal(got.written, bank.written)
        assert got.any_filled


def test_float32_checkpoint_round_trip_is_exact(tmp_path, rng):
    cfg, model = tiny_model(tmp_path / "m")
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    path = tmp_path / "exact.ckpt"
    save_checkpoint(model, path)
    clone, _, _ = load_checkpoint(path)
    got = clone.parameters()
    for name, t in model.parameters().items():
        assert got[name].value.dtype == np.float32
        np.testing.assert_array_equal(got[name].value, t.value)
    got = clone.banks()
    for name, bank in model.banks().items():
        assert got[name].slots.dtype == np.float32
        np.testing.assert_array_equal(got[name].slots, bank.slots)
    imgs = std_images(cfg, 3, rng)
    np.testing.assert_array_equal(model.forward(imgs).value, clone.forward(imgs).value)


def test_analysis_reads_a_live_model_as_its_checkpoint(tmp_path, rng):
    cfg, model = tiny_model(tmp_path / "m")
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    _, test = load_dataset(cfg)
    # the last forward wrote the banks; analysis reads them as they stand
    live = [hit_rate(model, test, branch=b) for b in ("local", "global")]
    path = tmp_path / "live.ckpt"
    save_checkpoint(model, path)
    clone, _, _ = load_checkpoint(path)
    assert live == [hit_rate(clone, test, branch=b) for b in ("local", "global")]


def test_checkpoint_reserialization_is_byte_identical(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    clone, _, crng = load_checkpoint(path)
    again = tmp_path / "again.ckpt"
    save_checkpoint(clone, again, rng=crng, extra={"epoch": 3, "best_acc": 0.75})
    assert path.read_bytes() == again.read_bytes()


def test_inference_entry_points_match_a_graph_building_forward(tmp_path, rng, monkeypatch):
    cfg, model, _ = checkpointed(tmp_path, rng)
    _, test = load_dataset(cfg)
    x = model._images(standardize(test.images, cfg.norm_mean, cfg.norm_std))
    graph = model._forward(x, cfg.t_steps)
    assert graph.requires_grad
    acc = evaluate(model, test, batch_size=7)
    assert acc == int((graph.value.argmax(axis=1) == test.labels).sum()) / len(test)
    cases = (("local", False), ("local", True), ("global", False))
    reports = [hit_rate(model, test, branch=b, all_tokens=a, batch_size=7) for b, a in cases]
    # the scope covers the forwards, the capture hook's calls among them, but
    # never the caller's loop body
    w = ad.Tensor(np.ones(2), requires_grad=True)
    hooked = []
    for _ in eval_batches(model, test, batch_size=7,
                          capture=lambda *read: hooked.append(ad._recording)):
        assert ad.add(w, w).requires_grad
    assert hooked and not any(hooked)
    # the same entry points with the scope switched off build the full graph
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    assert evaluate(model, test, batch_size=7) == acc
    assert reports == [hit_rate(model, test, branch=b, all_tokens=a, batch_size=7)
                       for b, a in cases]


@pytest.mark.parametrize("t_steps", [0, 3])
def test_captured_arrays_do_not_depend_on_the_scope(tmp_path, rng, t_steps):
    cfg, model = tiny_model(tmp_path, t_steps=t_steps)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, 3, rng)
    plain = model.forward(imgs).value
    runs = []
    for scope in (ad.no_grad, contextlib.nullcontext):
        with scope():
            logits, reads = captured(model, imgs)
        np.testing.assert_array_equal(logits, plain)
        runs.append(reads)
    assert len(runs[0]) == 2 * cfg.n_blocks + 1
    for key, got in runs[0].items():
        if got is None:  # T=0 reads no bank
            assert runs[1][key] is None
        else:
            np.testing.assert_array_equal(got, runs[1][key])


def test_a_capture_error_stops_both_lanes(tmp_path, rng):
    # the capture raises at the chunk's second read; the forward must raise
    # it, not hang with one lane waiting for the other, and restore the
    # BLAS thread count
    cfg, model = tiny_model(tmp_path, n_blocks=2)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, model_mod._CHUNK, rng)
    threads = _blas.threads()

    class Stop(Exception):
        pass

    calls, raised = [], []

    def capture(owner, name, q, weights):
        calls.append(name)
        if len(calls) == 2:
            raise Stop

    def run():
        try:
            model.forward(imgs, capture=capture)
        except Stop as e:
            raised.append(e)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(raised) == 1 and calls == ["local", "global"]
    assert _blas.threads() == threads


def test_a_forward_inside_a_capture_runs_and_restores_the_blas_threads(tmp_path, rng):
    # a forward started from a capture finds the lanes busy, so it runs its
    # own lanes one after another instead of waiting for them
    cfg, model = tiny_model(tmp_path, n_blocks=2)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, model_mod._CHUNK, rng)
    plain = model.forward(imgs).value
    threads = _blas.threads()
    inner = []

    def capture(owner, name, q, weights):
        if name == "pool":
            inner.append(model.forward(imgs).value)

    out = []
    worker = threading.Thread(target=lambda: out.append(model.forward(imgs, capture=capture)),
                              daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1
    assert_same_bits(out[0].value, plain)
    assert len(inner) == 1
    assert_same_bits(inner[0], plain)
    assert _blas.threads() == threads


def test_concurrent_forwards_keep_their_bits_and_the_blas_threads(tmp_path, rng):
    # more callers than cores, switching threads often: each forward gives
    # the logits it gives alone, and the last scope out restores the BLAS
    # thread count and graph recording
    cfg, model = tiny_model(tmp_path, n_blocks=2)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    batches = [std_images(cfg, model_mod._CHUNK + 3 * i, rng) for i in range(4)]
    want = [model.forward(x).value for x in batches]
    threads = _blas.threads()
    got = [[] for _ in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=lambda x=x, out=out: out.extend(
                       model.forward(x).value for _ in range(3)), daemon=True)
                   for x, out in zip(batches, got)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for runs, logits in zip(got, want):
        assert len(runs) == 3
        for r in runs:
            assert_same_bits(r, logits)
    assert _blas.threads() == threads
    assert ad._recording  # every forward's no_grad scope has closed


def concurrent_lanes():
    """Skip unless an eval forward here runs its lanes concurrently."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: lanes run one after another")
    if _blas.threads() is None:
        pytest.skip("no OpenBLAS found through ctypes: lanes run one after another")
    if _blas.threads() < 2:
        pytest.skip("one BLAS thread: lanes run one after another")


def lane_threads(model):
    """(threads, undo): each _forward call of model appends its thread's id."""
    threads, forward = [], model._forward

    def watched(*args):
        threads.append(threading.get_ident())
        return forward(*args)

    model._forward = watched
    return threads, lambda: vars(model).pop("_forward")


def test_concurrent_lanes_hand_the_capture_the_serial_events(tmp_path, rng):
    # a full chunk and a chunk of a 16- and a 4-image lane, switching
    # threads often: capture runs in the calling thread only, never twice
    # at once, and sees the events of the forward whose lanes run one after
    # another, bit for bit
    concurrent_lanes()
    cfg, model = tiny_model(tmp_path, n_blocks=2, t_steps=3)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, model_mod._CHUNK + 20, rng)

    def events():
        seen, callers, clashes, busy = [], set(), [], threading.Lock()

        def capture(owner, name, q, weights):
            if not busy.acquire(blocking=False):
                clashes.append(name)
                return
            try:
                callers.add(threading.get_ident())
                who = "model" if owner is model else model.blocks.index(owner)
                seen.append((who, name, None if q is None else q.value.tobytes(),
                             weights.value.tobytes()))
                time.sleep(1e-3)  # a second caller would find the lock held
            finally:
                busy.release()
        return seen, callers, clashes, capture

    seen, callers, clashes, capture = events()
    threads, undo = lane_threads(model)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        logits = model.forward(imgs, capture=capture).value
    finally:
        sys.setswitchinterval(interval)
        undo()
    assert len(set(threads)) == 2  # lane 1 ran on the worker
    assert callers == {threading.get_ident()} and clashes == []
    serial, _, _, capture = events()
    with _blas.one_thread():
        assert_same_bits(model.forward(imgs, capture=capture).value, logits)
    assert len(seen) == 2 * (2 * cfg.n_blocks + 1)
    assert seen == serial


def test_a_failing_lane_1_stops_lane_0_and_raises_its_own_error(tmp_path, rng):
    # image 20 sits in lane 1; lane 0 waits for lane 1's first read, which
    # never comes. The forward raises lane 1's error, calls no capture, and
    # leaves the BLAS threads and the lanes' worker as it found them
    concurrent_lanes()
    cfg, model = tiny_model(tmp_path, n_blocks=2)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, model_mod._CHUNK, rng)
    imgs[20] = np.nan
    threads = _blas.threads()
    calls, raised = [], []

    def run():
        try:
            model.forward(imgs, capture=lambda *event: calls.append(event[1]))
        except Exception as e:
            raised.append(e)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(raised) == 1 and type(raised[0]) is FloatingPointError
    assert str(raised[0]) == "matmul produced non-finite values"
    assert calls == []
    assert _blas.threads() == threads
    lanes, undo = lane_threads(model)
    model.forward(std_images(cfg, model_mod._CHUNK, rng))
    undo()
    assert len(set(lanes)) == 2


def count_key_builds(model, monkeypatch):
    """{bank name: read_keys calls on its slots}, counted from now on."""
    builds, real = {}, ad.read_keys

    def spy(slots):
        name = next(n for n, b in model.banks().items() if b.slots is slots)
        builds[name] = builds.get(name, 0) + 1
        return real(slots)

    monkeypatch.setattr(ad, "read_keys", spy)
    return builds


def test_each_bank_builds_its_keys_once_per_state(tmp_path, rng, monkeypatch):
    # reads share their bank's keys until the bank is written: an eval
    # forward over three chunks builds them once, a second forward never,
    # and a train step at most once, before its writes: none where the
    # keys are still those of the slots it reads
    cfg, model = tiny_model(tmp_path, n_blocks=2, t_steps=2)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    builds = count_key_builds(model, monkeypatch)
    imgs = std_images(cfg, 2 * model_mod._CHUNK + 5, rng)
    model.forward(imgs)
    assert builds == {name: 1 for name in model.banks()}
    builds.clear()
    model.forward(imgs)
    assert builds == {}
    labels = rng.integers(0, cfg.num_classes, size=len(imgs))
    train_step(model, imgs, labels, rng)  # reads the forwards' keys, then writes
    assert builds == {}
    for _ in range(2):
        train_step(model, imgs, labels, rng)
        assert builds == {name: 1 for name in model.banks()}
        builds.clear()


def test_reads_after_a_train_forward_use_the_written_slots(tmp_path, rng):
    # a train forward swaps in a slot copy and writes it; later reads must
    # equal those of a model whose banks never read before
    cfg, model = tiny_model(tmp_path, n_blocks=2)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, 6, rng)
    model.forward(imgs)  # builds every bank's keys
    model.forward(imgs, mode="train", labels=np.arange(6) % cfg.num_classes, rng=rng)
    fresh = Model(cfg)
    for t, u in zip(fresh.parameters().values(), model.parameters().values()):
        t.value = u.value
    for bank, twin in zip(model.banks().values(), fresh.banks().values()):
        twin.load_state(bank.state_dict())
    got, want = captured(model, imgs), captured(fresh, imgs)
    assert_same_bits(got[0], want[0])
    for key, alpha in want[1].items():
        assert_same_bits(got[1][key], alpha)


def test_alpha_is_formed_only_under_capture(tmp_path, rng, monkeypatch):
    """Training and uncaptured eval forwards never divide a read's weights into
    alpha; an analysis forms it once per batch, for its own branch at the
    last block, so a global-branch analysis never forms local alpha, and a
    pooled local analysis forms only each image's pooled-token row."""
    cfg, model = tiny_model(tmp_path, t_steps=2, n_blocks=2)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    reads = []
    value = ad.ReadWeights.value
    monkeypatch.setattr(ad.ReadWeights, "value",
                        property(lambda w: reads.append(w.shape) or value.fget(w)))
    imgs = std_images(cfg, 3, rng)
    model.forward(imgs)
    with ad.no_grad():
        model.forward(imgs)
    _, test = load_dataset(cfg)
    evaluate(model, test, batch_size=7)
    model.forward(imgs, mode="train", labels=np.array([0, 1, 0]), rng=np.random.default_rng(1))
    assert reads == []
    sizes = [len(test.labels[i:i + 7]) for i in range(0, len(test), 7)]
    hit_rate(model, test, branch="global", batch_size=7)
    assert reads == [(n, 1, cfg.k_global) for n in sizes]
    reads.clear()
    hit_rate(model, test, branch="local", batch_size=7)
    assert reads == [(n, 1, cfg.k_local) for n in sizes]


@pytest.mark.parametrize("branch", ["local", "global"])
@pytest.mark.parametrize("off", ["T0", "beta0"])
def test_unrefined_analysis_reads_once_per_chunk(tmp_path, rng, monkeypatch, off, branch):
    """Where refinement reads no bank, an analysis makes one plain read per
    chunk, at the last block and for its own branch only."""
    cfg, model = tiny_model(tmp_path, n_blocks=2, t_steps=0 if off == "T0" else 1)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    if off == "beta0":
        for blk in model.blocks:
            blk.beta_local.value = np.zeros_like(blk.beta_local.value)
            blk.beta_global.value = np.zeros_like(blk.beta_global.value)
    queries = []
    real = ad.memory_read

    def spy(z, slots, keys, mask):
        queries.append((len(slots), ad.as_tensor(z).shape))
        return real(z, slots, keys, mask)

    monkeypatch.setattr(ad, "memory_read", spy)
    n = 2 * model_mod._CHUNK + 5
    probe = Dataset(rng.random((n, cfg.in_channels, *cfg.image_size)),
                    np.arange(n) % cfg.num_classes, cfg.num_classes, "probe")
    hit_rate(model, probe, branch=branch, batch_size=64)
    last = model.blocks[-1]
    bank, rows = ((last.bank_local, cfg.n_tokens) if branch == "local"
                  else (last.bank_global, 1))
    want = (len(bank.filled_view()[0]), (rows, cfg.d_lat))
    assert queries == [(want[0], (b, *want[1])) for b in (32, 32, 5)]


def test_checkpoint_with_optimizer_state_loads(tmp_path, rng):
    cfg, model = tiny_model(tmp_path / "m")
    opt = Adam(model.parameters(), lr=1e-3, weight_decay=0.0)
    imgs = std_images(cfg, 2, rng)
    loss = ad.cross_entropy(model.forward(imgs, mode="train",
                                          labels=np.array([0, 1]),
                                          rng=np.random.default_rng(0)),
                            np.array([0, 1]))
    ad.backward(loss)
    opt.step()
    path = tmp_path / "with_opt.ckpt"
    save_checkpoint(model, path, optimizer=opt)
    clone, extra, crng = load_checkpoint(path)
    assert crng is None
    np.testing.assert_allclose(model.forward(imgs).value, clone.forward(imgs).value,
                               rtol=1e-5, atol=1e-6)


def test_checkpoint_crash_mid_write_keeps_the_earlier_file(tmp_path, rng, monkeypatch):
    cfg, model, path = checkpointed(tmp_path, rng)
    before = path.read_bytes()
    files = sorted(p.name for p in tmp_path.iterdir())
    calls = []

    def failing_pack(*args):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return pack(*args)

    pack = model_mod._pack_record
    monkeypatch.setattr(model_mod, "_pack_record", failing_pack)
    model.head_b.value = model.head_b.value + 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, path, rng=rng)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_train_step_gradients_use_the_slots_the_forward_read(tmp_path, monkeypatch):
    # with full banks, a train step's writes overwrite slots its reads
    # weighted; deferring the writes past backward() must change nothing
    grads, slots = [], []
    for defer in (False, True):
        cfg, model = tiny_model(tmp_path / "m", n_blocks=2)
        rng = np.random.default_rng(5)
        fill_via_training_steps(cfg, model, rng, steps=4)
        assert all(np.array_equal(b.filled, b.per_class_capacity) for b in model.banks().values())
        labels = np.array([0, 1, 1, 0])
        pending = []
        with monkeypatch.context() as m:
            if defer:
                m.setattr(MemoryBank, "write", lambda bank, *args: pending.append((bank, args)))
            logits = model.forward(std_images(cfg, 4, rng), mode="train", labels=labels, rng=rng)
            ad.backward(ad.cross_entropy(logits, labels))
        for bank, args in pending:
            bank.write(*args)
        grads.append({n: t.grad for n, t in model.parameters().items()})
        slots.append([b.slots for b in model.banks().values()])
    assert len(pending) == 4
    for name, g in grads[0].items():
        np.testing.assert_array_equal(g, grads[1][name], err_msg=name)
    for a, b in zip(*slots):
        np.testing.assert_array_equal(a, b)


def graph_nodes(loss):
    """Every node of loss's graph that still has a backward to run, by id."""
    nodes, stack = {}, [loss.node]
    while stack:
        node = stack.pop()
        if id(node) not in nodes and node._backward is not None:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return nodes


def held_arrays(node):
    """The arrays node's backward closure holds."""
    cells = node._backward.__closure__ or ()
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


def test_train_step_backward_releases_the_graph(tmp_path, rng):
    cfg, model = tiny_model(tmp_path / "m", n_blocks=2)
    fill_via_training_steps(cfg, model, rng)
    labels = np.array([0, 1, 1, 0])
    logits = model.forward(std_images(cfg, 4, rng), mode="train", labels=labels, rng=rng)
    loss = ad.cross_entropy(logits, labels)
    nodes = graph_nodes(loss)
    assert all(isinstance(node, ad.Node) for node in nodes.values())
    params = model.parameters()
    assert len(nodes) > 40
    ad.zero_grad(params.values())
    ad.backward(loss)
    for node in nodes.values():
        assert node._parents == () and node._backward is None and node.grad is None
    for name, p in params.items():
        assert p.grad is not None and p.grad.shape == p.value.shape, name


def test_train_graph_keeps_no_unfold_and_no_pre_bias_values(tmp_path, rng):
    # the local projection rebuilds its unfold in backward, and every bias
    # is added inside its matmul, so no closure holds either array: a
    # matmul holds its two operands, the weight among them, and no bias
    # vector is an operand of an add
    cfg, model = tiny_model(tmp_path / "m", n_blocks=2)
    fill_via_training_steps(cfg, model, rng)
    labels = np.array([0, 1, 1, 0])
    logits = model.forward(std_images(cfg, 4, rng), mode="train", labels=labels, rng=rng)
    loss = ad.cross_entropy(logits, labels)
    params = list(model.parameters().values())
    vectors = [p.node for p in params if p.value.ndim == 1]
    adds = matmuls = 0
    for node in graph_nodes(loss).values():
        held = held_arrays(node)
        assert all(a.shape[-1] != cfg.k * cfg.k * cfg.d_emb for a in held), node._backward
        op = node._backward.__qualname__.split(".")[0]
        if op == "add":
            adds += 1
            assert held == []
            assert not any(p is v for p in node._parents for v in vectors)
        if op == "matmul":
            matmuls += 1
            assert len(held) == 2 and any(a is p.value for a in held for p in params)
    assert adds > 0 and matmuls > 0


def test_train_graph_frees_the_outputs_no_backward_reads(tmp_path, rng, monkeypatch):
    # graph nodes hold no values: an op output that no backward reads dies
    # with its caller's last reference while the loss graph lives on; the
    # arrays backwards read live until backward() has run
    cfg, model = tiny_model(tmp_path / "m", n_blocks=2, t_steps=2)
    fill_via_training_steps(cfg, model, rng)
    params = {id(p.value) for p in model.parameters().values()}
    refs = {}

    def watch(name, record):
        orig = getattr(ad, name)

        def watched(*args, **kwargs):
            out = orig(*args, **kwargs)
            for key, arr in record(out, *args):
                refs.setdefault(key, []).append(weakref.ref(arr))
            return out

        monkeypatch.setattr(ad, name, watched)

    watch("unfold_matmul", lambda q, *_: [("q", q.value)])
    watch("hopfield_update", lambda z, *_: [("refined z", z.value)])
    # add's operands: the patch embedding, block inputs, both branch
    # outputs and the MLP output; its outputs: the branch sums and the
    # block outputs
    watch("add", lambda out, a, b: [("add output", out.value)]
          + [("add operand", t.value) for t in (a, b) if id(t.value) not in params])
    watch("gelu", lambda out, x: [("gelu input", x.value)]
          + [("gelu derivative", d) for d in held_arrays(out.node)])
    watch("memory_read", lambda out, *_: [("read e", out[0]._e), ("read m", out[1].value)])
    labels = np.array([0, 1, 1, 0])
    logits = model.forward(std_images(cfg, 4, rng), mode="train", labels=labels, rng=rng)
    loss = ad.cross_entropy(logits, labels)
    del logits
    # the last block's output stays: the pooling's matmul and weighted sum read it
    last = refs["add output"].pop()
    assert last() is not None
    live = {key: sum(r() is not None for r in rs) for key, rs in refs.items()}
    assert live == {"q": 0, "refined z": 0, "add output": 0, "add operand": 0,
                    "gelu input": 0, "gelu derivative": 2, "read e": 8, "read m": 8}
    assert len(refs["refined z"]) == 8 and len(refs["add output"]) == 4
    ad.backward(loss)
    assert all(r() is None for rs in refs.values() for r in rs)


def test_train_step_leaf_gradients_are_separate_arrays(tmp_path, monkeypatch):
    # backwards hand the gradients they build to _accum without a copy; the
    # leaf grads must still be distinct arrays with no −0.0, and hold the
    # bits of a step that copies every first write
    def train_step():
        cfg, model = tiny_model(tmp_path / "m", n_blocks=2)
        rng = np.random.default_rng(5)
        fill_via_training_steps(cfg, model, rng)
        labels = np.array([0, 1, 1, 0])
        logits = model.forward(std_images(cfg, 4, rng), mode="train", labels=labels, rng=rng)
        ad.backward(ad.cross_entropy(logits, labels))
        return model

    model = train_step()
    grads = {n: t.grad for n, t in model.parameters().items()}
    held = [t.value for t in model.parameters().values()]
    held += [b.slots for b in model.banks().values()]
    names = list(grads)
    for i, name in enumerate(names):
        g = grads[name]
        assert not (np.signbit(g) & (g == 0)).any(), name
        assert not any(np.shares_memory(g, grads[other]) for other in names[i + 1:]), name
        assert not any(np.shares_memory(g, arr) for arr in held), name
    accum = ad._accum
    monkeypatch.setattr(ad, "_accum", lambda t, g, own=False: accum(t, g))
    copied = train_step().parameters()
    for name, g in grads.items():
        assert g.tobytes() == copied[name].grad.tobytes(), name


def test_checkpoint_rejects_bad_magic(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad_magic.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)


def test_checkpoint_rejects_version_skew(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    bad = tmp_path / "bad_version.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad)


def test_checkpoint_rejects_the_version_1_format(tmp_path, rng):
    # version 1 stored a cursor, a filled count and a frozen flag per bank;
    # its header is all the loader reads before refusing it
    cfg, model, path = checkpointed(tmp_path, rng)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 1)
    old = tmp_path / "v1.ckpt"
    old.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version 1 unsupported"):
        load_checkpoint(old)


def test_checkpoint_rejects_truncation(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    blob = path.read_bytes()
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(bad)


def test_checkpoint_rejects_trailing_bytes(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    bad = tmp_path / "padded.ckpt"
    bad.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(bad)


@pytest.mark.parametrize("part,text", [("config", b"[]"), ("config", b"5"),
                                       ("metadata", b"[]")])
def test_checkpoint_rejects_json_that_is_not_an_object(tmp_path, rng, part, text):
    # valid JSON of another type once raised TypeError or AttributeError
    cfg, model, path = checkpointed(tmp_path, rng)
    blob = path.read_bytes()
    meta_at = 16 + struct.unpack_from("<Q", blob, 8)[0]
    count_at = record_table(blob)[0]
    parts = {"config": blob[16:meta_at], "metadata": blob[meta_at + 8:count_at]}
    parts[part] = text
    bad = tmp_path / "not_an_object.ckpt"
    bad.write_bytes(blob[:8] + b"".join(struct.pack("<Q", len(p)) + p for p in parts.values())
                    + blob[count_at:])
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_checkpoint(bad)


def record_table(blob):
    """(offset of the record count, count, start of each record) of a checkpoint blob."""
    pos = 8
    cfg_len = struct.unpack_from("<Q", blob, pos)[0]
    pos += 8 + cfg_len
    meta_len = struct.unpack_from("<Q", blob, pos)[0]
    pos += 8 + meta_len
    count_at = pos
    count = struct.unpack_from("<I", blob, count_at)[0]
    pos += 4
    starts = []
    for _ in range(count):
        starts.append(pos)
        nlen = struct.unpack_from("<H", blob, pos)[0]
        pos += 2 + nlen
        code, ndim = struct.unpack_from("<BB", blob, pos)
        pos += 2
        shape = struct.unpack_from(f"<{ndim}Q", blob, pos) if ndim else ()
        pos += 8 * ndim
        item = 4 if code == 0 else 8
        pos += int(np.prod(shape, dtype=np.int64)) * item if shape else item
    return count_at, count, starts


def record_names(blob):
    names = []
    for start in record_table(blob)[2]:
        nlen = struct.unpack_from("<H", blob, start)[0]
        names.append(blob[start + 2:start + 2 + nlen].decode("utf-8"))
    return names


def with_records(blob, records):
    """blob with its record table replaced by the given record byte strings."""
    count_at = record_table(blob)[0]
    return blob[:count_at] + struct.pack("<I", len(records)) + b"".join(records)


def split_records(blob):
    starts = record_table(blob)[2]
    return [blob[a:b] for a, b in zip(starts, starts[1:] + [len(blob)])]


def _changed_copy_of_first(recs):
    first = bytearray(recs[0])
    first[-4:] = struct.pack("<f", 123.0)
    return bytes(first)


# each edit puts a record where the model's record list has another (or none)
OUT_OF_PLACE = [
    pytest.param(lambda recs: recs[:-1], id="missing"),
    pytest.param(lambda recs: recs + [_changed_copy_of_first(recs)], id="duplicate"),
    pytest.param(lambda recs: [recs[1], recs[0], *recs[2:]], id="permuted"),
    pytest.param(lambda recs: recs[:-1] + [model_mod._pack_record(
        "bogus", np.zeros(1, dtype=np.int64), "<i8")], id="renamed"),
    pytest.param(lambda recs: [model_mod._pack_record("patch_proj", np.zeros(3), "<f4"),
                               *recs[1:]], id="reshaped"),
    *(pytest.param(lambda recs, name=name: recs + [model_mod._pack_record(
        name, np.zeros(3), "<f4")], id=name)
      for name in ("bogus", "opt.m.not_a_param", "bank.nowhere.slots")),
]


@pytest.mark.parametrize("edit", OUT_OF_PLACE)
def test_checkpoint_rejects_a_record_out_of_place(tmp_path, rng, edit):
    cfg, model, path = checkpointed(tmp_path, rng)
    blob = path.read_bytes()
    assert record_names(blob)[:2] == ["patch_proj", "patch_bias"]
    bad = tmp_path / "out_of_place.ckpt"
    bad.write_bytes(with_records(blob, edit(split_records(blob))))
    with pytest.raises(ValueError, match="record"):
        load_checkpoint(bad)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, rng, bad_value):
    cfg, model, path = checkpointed(tmp_path, rng)
    blob = path.read_bytes()
    end = record_table(blob)[2][1]
    name = record_names(blob)[0]
    assert name in model.parameters()
    # the last float of the first parameter record
    bad = tmp_path / "non_finite.ckpt"
    bad.write_bytes(blob[:end - 4] + struct.pack("<f", bad_value) + blob[end:])
    with pytest.raises(ValueError, match=f"parameter {name!r} has non-finite"):
        load_checkpoint(bad)


def test_final_checkpoint_with_optimizer_records_loads(trained_tiny):
    cfg, summary, out = trained_tiny
    path = out / "final.ckpt"
    names = record_names(path.read_bytes())
    assert "opt.t" in names
    assert {n for n in names if n.startswith("opt.m.")}
    model, extra, crng = load_checkpoint(path)
    assert crng is not None and extra["epoch"] == cfg.epochs - 1


# ------------------------------------------------------------ loader fuzzing

@pytest.fixture(scope="module")
def fuzz_ckpt(tmp_path_factory):
    """(directory, blob, non-float byte offsets) of a tiny checkpoint with rng and
    optimizer records."""
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg, model = tiny_model(tmp / "m")
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    opt = Adam(model.parameters(), lr=1e-3, weight_decay=0.0)
    labels = np.array([0, 1])
    ad.backward(ad.cross_entropy(model.forward(std_images(cfg, 2, np.random.default_rng(1)),
                                               mode="train", labels=labels,
                                               rng=np.random.default_rng(2)), labels))
    opt.step()
    path = tmp / "fuzz.ckpt"
    save_checkpoint(model, path, rng=np.random.default_rng(42), extra={"epoch": 1},
                    optimizer=opt)
    blob = path.read_bytes()
    floats = np.zeros(len(blob), dtype=bool)
    starts = record_table(blob)[2]
    for start, end in zip(starts, starts[1:] + [len(blob)]):
        nlen = struct.unpack_from("<H", blob, start)[0]
        code, ndim = struct.unpack_from("<BB", blob, start + 2 + nlen)
        if code == 0:
            floats[start + 4 + nlen + 8 * ndim:end] = True
    return tmp, blob, np.flatnonzero(~floats)


def loads_or_raises_value_error(path, data):
    path.write_bytes(data)
    try:
        load_checkpoint(path)
    except ValueError:
        pass


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_loader_fuzz_raises_only_value_error(fuzz_ckpt, data):
    """A truncation to any length, or any single-bit flip outside the float
    payloads (headers, config, metadata, record names, shapes, int records),
    either loads or raises ValueError."""
    tmp, blob, flippable = fuzz_ckpt
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    loads_or_raises_value_error(tmp / "cut.ckpt", blob[:cut])
    pos = int(flippable[data.draw(st.integers(0, len(flippable) - 1), label="pos")])
    bit = data.draw(st.integers(0, 7), label="bit")
    flipped = bytearray(blob)
    flipped[pos] ^= 1 << bit
    loads_or_raises_value_error(tmp / "flip.ckpt", bytes(flipped))
