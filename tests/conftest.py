import numpy as np
import pytest

import hmn.autodiff as ad
from hmn.config import RunConfig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def total(t):
    """The sum of a tensor's entries as a (1, 1) loss: ones row · t's (R, C) rows · ones column."""
    if len(t.shape) != 2:
        t = ad.reshape(t, (-1, t.shape[-1]))
    r, c = t.shape
    return ad.matmul(ad.matmul(ad.Tensor(np.ones((1, r))), t), ad.Tensor(np.ones((c, 1))))


def assert_same_bits(got, want):
    """Equal dtype, shape and bit patterns, so −0.0 and +0.0 differ."""
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.uint32 if want.dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(got.view(uint), want.view(uint))


def make_tiny_cfg(tmp_dir, **overrides):
    """Small synthetic-data config that trains in about a second."""
    base = dict(
        dataset="synth_blobs",
        image_size=[8, 8],
        patch_size=4,
        d_emb=8,
        d_lat=6,
        n_blocks=1,
        k=3,
        mlp_ratio=2,
        k_local=8,
        k_global=8,
        t_steps=1,
        write_sample=2,
        synth_classes=2,
        synth_train_per_class=40,
        synth_test_per_class=10,
        batch_size=8,
        epochs=2,
        warmup_epochs=1,
        lr=3e-3,
        augment=False,
        seed=0,
        out_dir=str(tmp_dir),
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture
def tiny_cfg(tmp_path):
    return make_tiny_cfg(tmp_path / "run")


@pytest.fixture(scope="session")
def trained_tiny(tmp_path_factory):
    """One tiny synth training run shared by the analysis and CLI tests.

    Returns (cfg, summary dict, out_dir). A loaded checkpoint's banks hold
    the trained slots, and eval forwards only read them; accuracy on this
    task should be high but the tests only rely on structural properties
    unless stated otherwise.
    """
    from hmn.train import train

    out = tmp_path_factory.mktemp("trained_tiny")
    cfg = make_tiny_cfg(out, epochs=4, synth_train_per_class=60)
    summary = train(cfg, log=lambda *_: None)
    return cfg, summary, out
