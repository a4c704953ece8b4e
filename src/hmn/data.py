"""Datasets, binary loaders, subsampling protocols, augmentation.

Images live in [0, 1] pixel space inside Dataset so corruption and
augmentation operate on honest pixel values; standardization with the
dataset constants happens at batch-preparation time.
"""

import gzip
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

CIFAR_RECORD = 3073  # 1 label byte + 3 channel planes of 1024 bytes
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
AUGMENT_PAD = 4  # zero border around an image before its random crop


class DataFormatError(ValueError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (count, C, H, W) float64 in [0, 1]
    labels: np.ndarray  # (count,) int64
    num_classes: int
    name: str

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels disagree on count")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")

    def __len__(self):
        return len(self.labels)

    def subset(self, indices):
        return Dataset(self.images[indices], self.labels[indices],
                       self.num_classes, self.name)


def standardize(images, mean, std):
    """Pixel [0,1] batch -> per-channel standardized values."""
    mean = np.asarray(mean, dtype=np.float64).reshape(1, -1, 1, 1)
    std = np.asarray(std, dtype=np.float64).reshape(1, -1, 1, 1)
    return (np.asarray(images, dtype=np.float64) - mean) / std


# ------------------------------------------------------------------- loaders

def _read_cifar_file(path, expected_records):
    if not os.path.exists(path):
        raise DataFormatError(f"missing file {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % CIFAR_RECORD != 0:
        raise DataFormatError(
            f"{os.path.basename(path)}: size {len(blob)} is not a multiple of {CIFAR_RECORD}")
    n = len(blob) // CIFAR_RECORD
    if n != expected_records:
        raise DataFormatError(
            f"{os.path.basename(path)}: {n} records, expected {expected_records}")
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(n, CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise DataFormatError(f"{os.path.basename(path)}: label byte > 9")
    images = raw[:, 1:].reshape(n, 3, 32, 32).astype(np.float64) / 255.0
    return images, labels


def load_cifar10(data_dir):
    """-> (train, test) from the 5+1 binary batch files (3073-byte records)."""
    parts = [_read_cifar_file(os.path.join(data_dir, f), 10000) for f in CIFAR_TRAIN_FILES]
    train = Dataset(np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]), 10, "cifar10")
    ti, tl = _read_cifar_file(os.path.join(data_dir, CIFAR_TEST_FILE), 10000)
    return train, Dataset(ti, tl, 10, "cifar10")


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, magic, ndim):
    """The uint8 payload of a big-endian IDX file, shaped by its ndim sizes."""
    with _open_maybe_gzip(path) as fh:
        blob = fh.read()
    name, header = os.path.basename(path), 4 + 4 * ndim
    if len(blob) < header:
        raise DataFormatError(f"{name}: header truncated")
    got, *dims = struct.unpack(">" + "I" * (1 + ndim), blob[:header])
    if got != magic:
        raise DataFormatError(f"{name}: bad magic 0x{got:08x}, want 0x{magic:08x}")
    if len(blob) - header != math.prod(dims):
        raise DataFormatError(
            f"{name}: payload {len(blob) - header} bytes, want {math.prod(dims)}")
    return np.frombuffer(blob, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path, labels_path):
    """Big-endian IDX pair -> (images (n,1,H,W) in [0,1], labels)."""
    for p in (images_path, labels_path):
        if not os.path.exists(p):
            raise DataFormatError(f"missing file {p}")
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    images = images[:, None].astype(np.float64) / 255.0
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if len(labels) != len(images):
        raise DataFormatError(f"images hold {len(images)} records but labels hold {len(labels)}")
    return images, labels.astype(np.int64)


def _find_idx(data_dir, stem):
    for suffix in ("", ".gz"):
        p = os.path.join(data_dir, stem + suffix)
        if os.path.exists(p):
            return p
    raise DataFormatError(f"missing file {os.path.join(data_dir, stem)}[.gz]")


def load_fashion_mnist(data_dir):
    tr_i, tr_l = load_idx(_find_idx(data_dir, "train-images-idx3-ubyte"),
                          _find_idx(data_dir, "train-labels-idx1-ubyte"))
    te_i, te_l = load_idx(_find_idx(data_dir, "t10k-images-idx3-ubyte"),
                          _find_idx(data_dir, "t10k-labels-idx1-ubyte"))
    if len(tr_l) != 60000 or len(te_l) != 10000:
        raise DataFormatError("fashion_mnist split counts must be 60000/10000")
    if tr_l.max(initial=0) > 9 or te_l.max(initial=0) > 9:
        raise DataFormatError("fashion_mnist label > 9")
    return (Dataset(tr_i, tr_l, 10, "fashion_mnist"),
            Dataset(te_i, te_l, 10, "fashion_mnist"))


# ---------------------------------------------------------------- synthetic

def blob_template(class_id, num_classes, height, width):
    """Deterministic per-class shape on a dim background; classes place a
    bright disk (even ids) or square (odd ids) at class-keyed positions."""
    img = np.full((1, height, width), 0.1)
    angle = 2.0 * np.pi * class_id / max(num_classes, 1)
    r = min(height, width) / 4.0
    cy = height / 2.0 + r * np.sin(angle)
    cx = width / 2.0 + r * np.cos(angle)
    yy, xx = np.mgrid[0:height, 0:width]
    radius = min(height, width) / 5.0
    if class_id % 2 == 0:
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
    else:
        mask = (np.abs(yy - cy) <= radius) & (np.abs(xx - cx) <= radius)
    img[0][mask] = 0.9
    return img


def synth_blobs(num_classes, n_per_class, image_size=(16, 16), seed=0, noise=0.1):
    """Geometric template per class plus Gaussian pixel noise, clipped to [0,1]."""
    h, w = image_size
    rng = np.random.default_rng(seed)
    templates = np.stack([blob_template(c, num_classes, h, w) for c in range(num_classes)])
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    images = templates[labels] + rng.normal(0.0, noise, size=(len(labels), 1, h, w))
    return Dataset(np.clip(images, 0.0, 1.0), labels, num_classes, "synth_blobs")


# ------------------------------------------------------------- subsampling

def stratified_fraction(dataset, fraction, seed):
    """Keep floor(fraction·n_c) of each class, chosen without replacement.

    Selected indices are sorted, so fraction 1.0 returns the dataset in its
    original order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    keep = []
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        take = int(np.floor(fraction * len(idx)))
        if take == 0:
            raise ValueError(f"fraction {fraction} empties class {c} ({len(idx)} samples)")
        keep.append(rng.choice(idx, size=take, replace=False))
    return dataset.subset(np.sort(np.concatenate(keep)))


def longtail_subsample(dataset, ratio, seed):
    """Exponential class profile: class c keeps n_max·ratio^(−c/(C−1)), min 1."""
    if ratio < 1.0:
        raise ValueError(f"imbalance ratio must be >= 1, got {ratio}")
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes)
    n_max = counts.max()
    rng = np.random.default_rng(seed)
    keep = []
    c_count = dataset.num_classes
    for c in range(c_count):
        if ratio == 1.0 or c_count == 1:
            target = n_max
        else:
            target = int(np.floor(n_max * ratio ** (-c / (c_count - 1))))
        target = max(1, min(target, counts[c]))
        idx = np.flatnonzero(dataset.labels == c)
        if target == len(idx):
            keep.append(idx)
        else:
            keep.append(rng.choice(idx, size=target, replace=False))
    return dataset.subset(np.sort(np.concatenate(keep)))


# ------------------------------------------------------------- augmentation

def augment(image, rng):
    """Pad by AUGMENT_PAD, random crop back to size, then horizontal flip
    with probability 0.5.

    Draw order per image: crop row offset, crop column offset, flip
    uniform. Offsets (AUGMENT_PAD, AUGMENT_PAD) are the identity crop.
    """
    c, h, w = image.shape
    pad = AUGMENT_PAD
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=image.dtype)
    padded[:, pad:pad + h, pad:pad + w] = image
    dy = int(rng.integers(0, 2 * pad + 1))
    dx = int(rng.integers(0, 2 * pad + 1))
    out = padded[:, dy:dy + h, dx:dx + w]
    if rng.random() < 0.5:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)


def load_dataset(cfg):
    """(train, test) for the configured dataset, before subsampling."""
    if cfg.dataset == "cifar10":
        return load_cifar10(cfg.data_dir)
    if cfg.dataset == "fashion_mnist":
        return load_fashion_mnist(cfg.data_dir)
    if cfg.dataset == "synth_blobs":
        h, w = cfg.image_size
        train = synth_blobs(cfg.num_classes, cfg.synth_train_per_class, (h, w), seed=cfg.seed,
                            noise=cfg.synth_noise)
        test = synth_blobs(cfg.num_classes, cfg.synth_test_per_class, (h, w), seed=cfg.seed + 1,
                           noise=cfg.synth_noise)
        return train, test
    raise ValueError(f"unknown dataset {cfg.dataset!r}")
