"""End-to-end finite-difference verification on a tiny model instance.

Builds an 8×8-input model with two blocks, fills the banks with a couple
of train steps, randomizes every parameter so no gradient path is
trivially zero (the head starts at zero otherwise), then compares
backward() of the read-only ``Model._forward`` against central
differences for each parameter element. The model computes in float64:
central differences at step 1e-5 would drown in float32 rounding.
"""

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from .config import config_from_dict
from .model import Model
from .train import train_step

TINY = {
    "dataset": "synth_blobs", "image_size": [8, 8], "patch_size": 4,
    "d_emb": 8, "d_lat": 6, "n_blocks": 2, "k": 3, "mlp_ratio": 2,
    "k_local": 8, "k_global": 8, "t_steps": 1, "write_sample": 2,
    "synth_classes": 2, "epochs": 2, "warmup_epochs": 1, "batch_size": 4,
    "augment": False, "seed": 0,
}


def tiny_config(**overrides):
    d = dict(TINY)
    d.update(overrides)
    return config_from_dict(d)


def model_gradcheck(t_steps=1, seed=0):
    """Worst relative error between backward() and finite differences.

    Checks every learnable parameter of the tiny model on a batch of 4
    with memory retrieval active, at step 1e-5 and relative-error floor
    1e-6. The banks are filled by train steps first; the check's own
    forwards only read them.
    """
    batch = 4
    cfg = tiny_config(t_steps=int(t_steps))
    rng = np.random.default_rng(seed)
    model = Model(cfg, rng, dtype=np.float64)
    ds = data_mod.synth_blobs(cfg.num_classes, 8, tuple(cfg.image_size), seed=seed + 1)
    # two write passes so both banks hold real embeddings before the check
    for start in (0, batch):
        x = data_mod.standardize(ds.images[start:start + batch],
                                 cfg.norm_mean, cfg.norm_std)
        train_step(model, x, ds.labels[start:start + batch], rng)
    params = model.parameters()
    for t in params.values():
        t.value = rng.normal(0.0, 0.3, size=t.value.shape)
    x_fix = data_mod.standardize(ds.images[:batch], cfg.norm_mean, cfg.norm_std)
    y_fix = ds.labels[:batch]

    def build():
        return ad.cross_entropy(model._forward(x_fix, cfg.t_steps), y_fix)

    return ad.check_gradients(build, list(params.values()), step=1e-5, floor=1e-6)
