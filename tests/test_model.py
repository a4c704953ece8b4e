"""Model wiring, pooling, and the binary checkpoint format."""

import contextlib
import struct

import numpy as np
import pytest

import hmn.autodiff as ad
from hmn.analysis import _captured_batches, hit_rate
from hmn.config import RunConfig
from hmn.data import load_dataset, standardize
from hmn.model import MAGIC, Model, load_checkpoint, save_checkpoint
from hmn.optim import Adam
from hmn.train import evaluate

from conftest import make_tiny_cfg

POOL_E = 0.7310585786300048792511592  # e/(e+1) to 25 digits


def tiny_model(tmp_path, **overrides):
    cfg = make_tiny_cfg(tmp_path, **overrides)
    return cfg, Model(cfg)


def std_images(cfg, batch, rng):
    return rng.standard_normal((batch, cfg.in_channels, *cfg.image_size))


def fill_via_training_steps(cfg, model, rng, steps=2, batch=4):
    for _ in range(steps):
        imgs = std_images(cfg, batch, rng)
        labels = rng.integers(0, cfg.num_classes, size=batch)
        model.forward(imgs, mode="train", labels=labels, rng=rng)
    # the head starts at zero, which would blank the logits and make
    # output comparisons vacuous
    model.head_w.value = rng.normal(0.0, 0.5, size=model.head_w.value.shape)
    model.head_b.value = rng.normal(0.0, 0.5, size=model.head_b.value.shape)


# ------------------------------------------------------------------ patching

def test_token_counts():
    c32 = RunConfig(dataset="cifar10", patch_size=4).resolve()
    assert c32.n_tokens == 64
    c28 = RunConfig(dataset="fashion_mnist", patch_size=4).resolve()
    assert c28.n_tokens == 49


def test_patchify_layout(tmp_path):
    cfg, model = tiny_model(tmp_path, image_size=[4, 4], patch_size=2)
    img = np.zeros((1, 1, 4, 4))
    for y in range(4):
        for x in range(4):
            img[0, 0, y, x] = 10 * y + x
    rows = model._patchify(img)
    assert rows.shape == (4, 4)
    # patches scan row-major over the grid; each is (C, P, P) flattened
    np.testing.assert_array_equal(rows[0], [0, 1, 10, 11])
    np.testing.assert_array_equal(rows[1], [2, 3, 12, 13])
    np.testing.assert_array_equal(rows[2], [20, 21, 30, 31])
    np.testing.assert_array_equal(rows[3], [22, 23, 32, 33])


def test_patchify_channel_major(tmp_path):
    cfg, model = tiny_model(tmp_path, image_size=[4, 4], patch_size=2, in_channels=2,
                            norm_mean=[0.5, 0.5], norm_std=[0.5, 0.5])
    img = np.zeros((1, 2, 4, 4))
    img[0, 0] = 1.0
    img[0, 1] = 2.0
    rows = model._patchify(img)
    np.testing.assert_array_equal(rows[0], [1, 1, 1, 1, 2, 2, 2, 2])


def test_input_shape_validation(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    with pytest.raises(ValueError):
        model.forward(rng.standard_normal((1, 3, 8, 8)))
    with pytest.raises(ValueError):
        model.forward(rng.standard_normal((1, 1, 8, 12)))
    with pytest.raises(ValueError):
        model.forward(rng.standard_normal((1, 1, 8, 8)), mode="predict")


# ------------------------------------------------------------------- pooling

def test_two_way_pool_oracle(rng):
    rows = ad.Tensor(rng.standard_normal((2, 3)))
    weights = ad.softmax_rows(ad.Tensor(np.array([[1.0, 0.0]])))
    pooled = ad.group_weighted_sum(weights, rows, groups=1)
    want = POOL_E * rows.value[0] + (1.0 - POOL_E) * rows.value[1]
    np.testing.assert_allclose(pooled.value[0], want, rtol=1e-12)


def test_zero_attention_pools_to_mean(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    model.W_att.value = np.zeros_like(model.W_att.value)
    capture = {}
    model.forward(std_images(cfg, 3, rng), capture=capture)
    np.testing.assert_array_equal(capture["pool_weights"],
                                  np.full((3, cfg.n_tokens), 1.0 / cfg.n_tokens))


def test_pool_weights_sum_to_one(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    capture = {}
    model.forward(std_images(cfg, 2, rng), capture=capture)
    np.testing.assert_allclose(capture["pool_weights"].sum(axis=1), np.ones(2), rtol=1e-12)


# ---------------------------------------------------------------- invariants

def test_fresh_model_loss_is_exactly_log_c(tmp_path, rng):
    cfg, model = tiny_model(tmp_path, synth_classes=5, k_local=10, k_global=10)
    logits = model.forward(std_images(cfg, 6, rng))
    assert (logits.value == 0.0).all()
    loss = ad.cross_entropy(logits, np.zeros(6, dtype=np.int64))
    assert loss.value.item() == float(np.log(5.0))


def test_eval_is_deterministic_and_pure(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    imgs = std_images(cfg, 3, rng)
    before = {n: t.value.copy() for n, t in model.parameters().items()}
    banks_before = {n: (b.slots.copy(), b.cursor.copy(), b.filled.copy())
                    for n, b in model.banks().items()}
    a = model.forward(imgs).value
    b = model.forward(imgs).value
    np.testing.assert_array_equal(a, b)
    for n, t in model.parameters().items():
        np.testing.assert_array_equal(t.value, before[n])
    for n, bank in model.banks().items():
        s, c, f = banks_before[n]
        np.testing.assert_array_equal(bank.slots, s)
        np.testing.assert_array_equal(bank.cursor, c)
        np.testing.assert_array_equal(bank.filled, f)


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
                    write_sample=4, out_dir=str(tmp_path)).resolve()
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


def test_single_image_promoted_to_batch(tmp_path, rng):
    cfg, model = tiny_model(tmp_path)
    img = std_images(cfg, 1, rng)
    np.testing.assert_array_equal(model.forward(img[0]).value, model.forward(img).value)


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
    model.set_frozen(True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, rng=np.random.default_rng(42),
                    extra={"epoch": 3, "best_acc": 0.75})
    return cfg, model, path


def test_checkpoint_round_trip_forward(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    clone, extra, crng = load_checkpoint(path)
    assert extra == {"epoch": 3, "best_acc": 0.75}
    imgs = std_images(cfg, 3, rng)
    # storage is float32, so the original is only f32-close ...
    np.testing.assert_allclose(model.forward(imgs).value, clone.forward(imgs).value,
                               rtol=1e-5, atol=1e-6)
    # ... but two loads of the same file agree bitwise
    clone2, _, _ = load_checkpoint(path)
    np.testing.assert_array_equal(clone.forward(imgs).value, clone2.forward(imgs).value)
    # the restored rng continues the saved stream
    want = np.random.default_rng(42)
    assert crng.bit_generator.state == want.bit_generator.state


def test_checkpoint_exact_when_params_are_f32_representable(tmp_path, rng):
    cfg, model = tiny_model(tmp_path / "m")
    fill_via_training_steps(cfg, model, np.random.default_rng(5))
    for t in model.parameters().values():
        t.value = t.value.astype(np.float32).astype(np.float64)
    for bank in model.banks().values():
        bank.slots[:] = bank.slots.astype(np.float32).astype(np.float64)
    path = tmp_path / "exact.ckpt"
    save_checkpoint(model, path)
    clone, _, _ = load_checkpoint(path)
    imgs = std_images(cfg, 3, rng)
    np.testing.assert_array_equal(model.forward(imgs).value, clone.forward(imgs).value)


def test_checkpoint_reserialization_is_byte_identical(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    clone, _, crng = load_checkpoint(path)
    again = tmp_path / "again.ckpt"
    save_checkpoint(clone, again, rng=crng, extra={"epoch": 3, "best_acc": 0.75})
    assert path.read_bytes() == again.read_bytes()


def test_inference_entry_points_match_a_graph_building_forward(tmp_path, rng, monkeypatch):
    cfg, model, _ = checkpointed(tmp_path, rng)
    _, test = load_dataset(cfg)
    graph = model.forward(standardize(test.images, cfg.norm_mean, cfg.norm_std))
    assert graph.requires_grad
    acc = evaluate(model, test, batch_size=7)
    assert acc == int((graph.value.argmax(axis=1) == test.labels).sum()) / len(test)
    cases = (("local", False), ("local", True), ("global", False))
    reports = [hit_rate(model, test, branch=b, all_tokens=a, batch_size=7) for b, a in cases]
    # the scope covers the forwards only, never the caller's loop body
    w = ad.Tensor(np.ones(2), requires_grad=True)
    for _ in _captured_batches(model, test, batch_size=7):
        assert ad.scalar_mul(w, 2.0).requires_grad
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
        capture = {}
        with scope():
            logits = model.forward(imgs, capture=capture).value
        np.testing.assert_array_equal(logits, plain)
        runs.append(capture)
    assert set(runs[0]) == {"local_alpha", "global_alpha", "pool_weights"}
    for key in runs[0]:
        np.testing.assert_array_equal(runs[0][key], runs[1][key])


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


def test_checkpoint_rejects_missing_record(tmp_path, rng):
    cfg, model, path = checkpointed(tmp_path, rng)
    blob = path.read_bytes()
    # walk the container to the record table, then drop the final record
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
    trimmed = (blob[:count_at] + struct.pack("<I", count - 1)
               + blob[count_at + 4:starts[-1]])
    bad = tmp_path / "missing.ckpt"
    bad.write_bytes(trimmed)
    with pytest.raises(ValueError, match="missing"):
        load_checkpoint(bad)
