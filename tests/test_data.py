"""Loaders, synthetic data, subsampling protocols, augmentation."""

import gzip
import struct

import numpy as np
import pytest

from hmn.config import RunConfig
from hmn.data import (AUGMENT_PAD, CIFAR_RECORD, DataFormatError, Dataset, _read_cifar_file,
                      augment, blob_template, load_cifar10, load_dataset,
                      load_fashion_mnist, load_idx, longtail_subsample,
                      standardize, stratified_fraction, synth_blobs)

# chi-squared upper 0.1% point at 80 degrees of freedom
CHI2_DF80_CRIT = 124.839224016


def idx_images_bytes(images):
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_labels_bytes(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(int(v) for v in labels)


# ----------------------------------------------------------------- cifar bin

def test_cifar_rejects_partial_record(tmp_path):
    p = tmp_path / "data_batch_1.bin"
    p.write_bytes(b"\x00" * 100)
    with pytest.raises(DataFormatError, match="multiple"):
        _read_cifar_file(p, 10000)


def test_cifar_rejects_wrong_record_count(tmp_path):
    p = tmp_path / "data_batch_1.bin"
    p.write_bytes(b"\x00" * (2 * CIFAR_RECORD))
    with pytest.raises(DataFormatError, match="expected 10000"):
        _read_cifar_file(p, 10000)


def test_cifar_rejects_label_byte_over_nine(tmp_path):
    rec = bytearray(2 * CIFAR_RECORD)
    rec[CIFAR_RECORD] = 10  # second record's label byte
    p = tmp_path / "batch.bin"
    p.write_bytes(bytes(rec))
    with pytest.raises(DataFormatError, match="label"):
        _read_cifar_file(p, 2)


def test_cifar_rejects_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="missing"):
        load_cifar10(tmp_path)


def test_cifar_record_layout(tmp_path):
    # one crafted record: label 3, red plane 255, green 128, blue 0
    rec = bytearray(CIFAR_RECORD)
    rec[0] = 3
    rec[1:1025] = b"\xff" * 1024
    rec[1025:2049] = b"\x80" * 1024
    p = tmp_path / "one.bin"
    p.write_bytes(bytes(rec) * 4)
    images, labels = _read_cifar_file(p, 4)
    assert labels.tolist() == [3, 3, 3, 3]
    assert images.shape == (4, 3, 32, 32)
    assert (images[0, 0] == 1.0).all()
    assert (images[0, 1] == 128 / 255).all()
    assert (images[0, 2] == 0.0).all()


# ----------------------------------------------------------------------- idx

def test_idx_round_trip_small(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(4, 3, 2), dtype=np.uint8)
    labels = np.array([1, 0, 2, 1], dtype=np.uint8)
    ip, lp = tmp_path / "imgs", tmp_path / "labels"
    ip.write_bytes(idx_images_bytes(imgs))
    lp.write_bytes(idx_labels_bytes(labels))
    got_i, got_l = load_idx(ip, lp)
    assert got_i.shape == (4, 1, 3, 2)
    np.testing.assert_allclose(got_i[:, 0], imgs / 255.0)
    np.testing.assert_array_equal(got_l, labels)


def test_idx_transparent_gzip(tmp_path):
    imgs = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    labels = np.array([0, 1], dtype=np.uint8)
    ip, lp = tmp_path / "imgs.gz", tmp_path / "labels.gz"
    ip.write_bytes(gzip.compress(idx_images_bytes(imgs)))
    lp.write_bytes(gzip.compress(idx_labels_bytes(labels)))
    got_i, got_l = load_idx(ip, lp)
    np.testing.assert_allclose(got_i[:, 0], imgs / 255.0)
    np.testing.assert_array_equal(got_l, labels)


def test_idx_rejects_bad_images_magic(tmp_path):
    blob = idx_images_bytes(np.zeros((1, 2, 2), dtype=np.uint8))
    ip = tmp_path / "imgs"
    ip.write_bytes(b"\x00\x00\x08\x04" + blob[4:])
    lp = tmp_path / "labels"
    lp.write_bytes(idx_labels_bytes(np.zeros(1, dtype=np.uint8)))
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(ip, lp)


def test_idx_rejects_bad_labels_magic(tmp_path):
    ip = tmp_path / "imgs"
    ip.write_bytes(idx_images_bytes(np.zeros((1, 2, 2), dtype=np.uint8)))
    lp = tmp_path / "labels"
    lblob = idx_labels_bytes(np.zeros(1, dtype=np.uint8))
    lp.write_bytes(b"\x00\x00\x08\x03" + lblob[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(ip, lp)


def test_idx_rejects_truncated_header(tmp_path):
    ip = tmp_path / "imgs"
    ip.write_bytes(b"\x00\x00\x08")
    lp = tmp_path / "labels"
    lp.write_bytes(idx_labels_bytes(np.zeros(1, dtype=np.uint8)))
    with pytest.raises(DataFormatError, match="truncated"):
        load_idx(ip, lp)


def test_idx_rejects_payload_size_mismatch(tmp_path):
    blob = idx_images_bytes(np.zeros((2, 2, 2), dtype=np.uint8))
    ip = tmp_path / "imgs"
    ip.write_bytes(blob + b"\x00")  # one extra byte
    lp = tmp_path / "labels"
    lp.write_bytes(idx_labels_bytes(np.zeros(2, dtype=np.uint8)))
    with pytest.raises(DataFormatError, match="payload"):
        load_idx(ip, lp)


def test_idx_rejects_count_disagreement(tmp_path):
    ip = tmp_path / "imgs"
    ip.write_bytes(idx_images_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
    lp = tmp_path / "labels"
    lp.write_bytes(idx_labels_bytes(np.zeros(2, dtype=np.uint8)))
    with pytest.raises(DataFormatError, match="records"):
        load_idx(ip, lp)


def test_fashion_mnist_enforces_split_counts(tmp_path):
    for stem, n in (("train", 3), ("t10k", 2)):
        (tmp_path / f"{stem}-images-idx3-ubyte").write_bytes(
            idx_images_bytes(np.zeros((n, 28, 28), dtype=np.uint8)))
        (tmp_path / f"{stem}-labels-idx1-ubyte").write_bytes(
            idx_labels_bytes(np.zeros(n, dtype=np.uint8)))
    with pytest.raises(DataFormatError, match="60000/10000"):
        load_fashion_mnist(tmp_path)


# ------------------------------------------------------------------- synth

def test_synth_counts_and_range():
    ds = synth_blobs(4, 6, image_size=(12, 12), seed=3)
    assert len(ds) == 24
    assert np.bincount(ds.labels).tolist() == [6, 6, 6, 6]
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_synth_deterministic():
    a = synth_blobs(3, 5, seed=7)
    b = synth_blobs(3, 5, seed=7)
    np.testing.assert_array_equal(a.images, b.images)
    c = synth_blobs(3, 5, seed=8)
    assert not np.array_equal(a.images, c.images)


def test_templates_pairwise_distinct():
    templates = [blob_template(c, 10, 16, 16) for c in range(10)]
    for i in range(10):
        for j in range(i + 1, 10):
            assert not np.array_equal(templates[i], templates[j]), (i, j)


def test_noiseless_synth_equals_templates():
    ds = synth_blobs(4, 3, image_size=(16, 16), seed=0, noise=0.0)
    for img, label in zip(ds.images, ds.labels):
        np.testing.assert_array_equal(img, blob_template(int(label), 4, 16, 16))


def test_nearest_template_classifies_noisy_synth():
    ds = synth_blobs(4, 50, image_size=(16, 16), seed=1, noise=0.1)
    templates = np.stack([blob_template(c, 4, 16, 16) for c in range(4)])
    d2 = ((ds.images[:, None] - templates[None]) ** 2).sum(axis=(2, 3, 4))
    acc = (d2.argmin(axis=1) == ds.labels).mean()
    assert acc >= 0.95


def test_load_dataset_synth_train_test_disjoint_noise():
    cfg = RunConfig(dataset="synth_blobs", synth_classes=2,
                    synth_train_per_class=5, synth_test_per_class=5)
    train, test = load_dataset(cfg)
    assert not np.array_equal(train.images[:5], test.images[:5])


# -------------------------------------------------------------- subsampling

def balanced_dataset(per_class=10, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    n = per_class * num_classes
    return Dataset(rng.random((n, 1, 4, 4)),
                   np.repeat(np.arange(num_classes, dtype=np.int64), per_class),
                   num_classes, "test")


def test_fraction_one_is_identity():
    ds = balanced_dataset()
    out = stratified_fraction(ds, 1.0, seed=5)
    np.testing.assert_array_equal(out.images, ds.images)
    np.testing.assert_array_equal(out.labels, ds.labels)


def test_fraction_takes_floor_per_class():
    ds = balanced_dataset(per_class=10)
    out = stratified_fraction(ds, 0.5, seed=5)
    assert np.bincount(out.labels).tolist() == [5, 5, 5, 5]
    out = stratified_fraction(ds, 0.26, seed=5)
    assert np.bincount(out.labels).tolist() == [2, 2, 2, 2]


def test_fraction_deterministic_and_seed_sensitive():
    ds = balanced_dataset(per_class=100)
    a = stratified_fraction(ds, 0.1, seed=5)
    b = stratified_fraction(ds, 0.1, seed=5)
    c = stratified_fraction(ds, 0.1, seed=6)
    np.testing.assert_array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)


def test_fraction_that_empties_a_class_is_rejected():
    ds = balanced_dataset(per_class=10)
    with pytest.raises(ValueError, match="empties"):
        stratified_fraction(ds, 0.05, seed=0)
    with pytest.raises(ValueError):
        stratified_fraction(ds, 0.0, seed=0)


def test_longtail_ratio_one_is_identity():
    ds = balanced_dataset()
    out = longtail_subsample(ds, 1.0, seed=3)
    np.testing.assert_array_equal(out.images, ds.images)


def test_longtail_profile_matches_formula():
    ds = balanced_dataset(per_class=500, num_classes=10)
    out = longtail_subsample(ds, 100.0, seed=3)
    counts = np.bincount(out.labels, minlength=10)
    for c in range(10):
        want = int(np.floor(500 * 100.0 ** (-c / 9)))
        assert counts[c] == want, f"class {c}: {counts[c]} != {want}"
    assert counts[0] == 500 and counts[9] == 5
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_longtail_keeps_at_least_one():
    ds = balanced_dataset(per_class=3, num_classes=5)
    out = longtail_subsample(ds, 1e6, seed=0)
    assert np.bincount(out.labels, minlength=5).min() >= 1


def test_longtail_rejects_ratio_below_one():
    with pytest.raises(ValueError):
        longtail_subsample(balanced_dataset(), 0.5, seed=0)


# ------------------------------------------------------------- augmentation

class StubRng:
    """Scripted draws standing in for a Generator; once a script runs out,
    its draws come from gen."""

    def __init__(self, ints=(), floats=(), gen=None):
        self.ints = list(ints)
        self.floats = list(floats)
        self.gen = gen

    def integers(self, lo, hi):
        return self.ints.pop(0) if self.ints else self.gen.integers(lo, hi)

    def random(self):
        return self.floats.pop(0) if self.floats else self.gen.random()


CENTER = [AUGMENT_PAD, AUGMENT_PAD]  # the identity crop's offsets
NO_FLIP, FLIP = 0.9, 0.1  # flip uniforms on either side of 0.5


def test_augment_flags_off_is_identity(rng):
    # With no crop offset and no flip drawn, augment hands back the image
    # unchanged: same values, dtype and shape for a multi-channel,
    # non-square image, as a contiguous array of its own.
    img = rng.random((3, 6, 10)).astype(np.float32)
    out = augment(img, StubRng(ints=CENTER, floats=[NO_FLIP]))
    assert out.dtype == img.dtype and out.flags["C_CONTIGUOUS"]
    assert not np.shares_memory(out, img)
    np.testing.assert_array_equal(out, img)


def test_augment_center_crop_is_identity(rng):
    img = rng.random((1, 8, 8))
    out = augment(img, StubRng(ints=CENTER, floats=[NO_FLIP]))
    np.testing.assert_array_equal(out, img)


def test_augment_double_flip_is_identity(rng):
    img = rng.random((1, 8, 8))
    once = augment(img, StubRng(ints=CENTER, floats=[FLIP]))
    assert not np.array_equal(once, img)
    twice = augment(once, StubRng(ints=CENTER, floats=[FLIP]))
    np.testing.assert_array_equal(twice, img)


def test_augment_flip_probability_half():
    img = np.zeros((1, 2, 2))
    img[0, 0, 0] = 1.0
    gen = StubRng(ints=CENTER * 100000, gen=np.random.default_rng(2024))
    flips = sum(augment(img, gen)[0, 0, 0] == 0.0 for _ in range(100000))
    assert abs(flips / 100000 - 0.5) < 0.01


def recover_crop_offsets(out, h, w, pad):
    """Invert the pad-crop from a positionally encoded image."""
    nz = np.argwhere(out[0] != 0)
    first_r, first_c = nz[:, 0].min(), nz[:, 1].min()
    v = int(out[0, first_r, first_c]) - 1
    src_r, src_c = v // w, v % w
    sy = first_r - src_r
    sx = first_c - src_c
    return pad - sy, pad - sx


def test_augment_crop_offsets_cover_grid_uniformly():
    h = w = 8
    pad = AUGMENT_PAD
    img = (np.arange(h * w, dtype=np.float64) + 1.0).reshape(1, h, w)
    counts = np.zeros((2 * pad + 1, 2 * pad + 1), dtype=np.int64)
    draws = 81 * 300
    gen = StubRng(floats=[NO_FLIP] * draws, gen=np.random.default_rng(99))
    for _ in range(draws):
        out = augment(img, gen)
        dy, dx = recover_crop_offsets(out, h, w, pad)
        counts[dy, dx] += 1
    assert counts.sum() == draws
    expected = draws / 81.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_DF80_CRIT, f"chi2={chi2:.1f}"


# ------------------------------------------------------------ miscellaneous

def test_standardize_arithmetic():
    imgs = np.full((2, 2, 3, 3), 0.5)
    out = standardize(imgs, [0.5, 0.25], [0.25, 0.5])
    assert (out[:, 0] == 0.0).all()
    assert (out[:, 1] == 0.5).all()


def test_dataset_validation():
    with pytest.raises(ValueError, match="count"):
        Dataset(np.zeros((3, 1, 2, 2)), np.zeros(2, dtype=np.int64), 2, "x")
    with pytest.raises(ValueError, match="range"):
        Dataset(np.zeros((2, 1, 2, 2)), np.array([0, 5]), 2, "x")
