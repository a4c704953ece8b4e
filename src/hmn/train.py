"""Training and evaluation loops.

Determinism contract (single thread): all randomness flows from the config
seed. Dataset generation and subsampling use fixed derived seeds; one
generator seeded with cfg.seed then drives, in order, model initialization
and, per epoch, the shuffle followed per batch by augmentation draws
(row offset, column offset, flip; image index order) and per-block
write-token sampling. Metrics land in metrics.csv; wall-clock goes to a
separate timings.csv so the metrics file is byte-identical across reruns.
"""

import os
import time

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from .model import Model, save_checkpoint
from .optim import Adam, lr_at


class TrainingDiverged(RuntimeError):
    pass


def prepare_datasets(cfg):
    train, test = data_mod.load_dataset(cfg)
    if cfg.fraction < 1.0:
        train = data_mod.stratified_fraction(train, cfg.fraction, cfg.seed)
    if cfg.imbalance_ratio > 1.0:
        train = data_mod.longtail_subsample(train, cfg.imbalance_ratio, cfg.seed + 1)
    return train, test


def evaluate(model, dataset, batch_size=None):
    """Top-1 accuracy in eval mode (banks frozen, no state touched, no graph)."""
    cfg = model.cfg
    bsz = batch_size or cfg.batch_size
    correct = 0
    for start in range(0, len(dataset), bsz):
        sl = slice(start, min(start + bsz, len(dataset)))
        x = data_mod.standardize(dataset.images[sl], cfg.norm_mean, cfg.norm_std)
        with ad.no_grad():
            logits = model.forward(x, mode="eval")
        correct += int((logits.value.argmax(axis=1) == dataset.labels[sl]).sum())
    return correct / max(len(dataset), 1)


def _fmt(x):
    return repr(float(x))


def train(cfg, log=print):
    """Run the full recipe; returns a summary dict.

    Writes metrics.csv, timings.csv, config.json, best.ckpt, final.ckpt
    under cfg.out_dir. Saved checkpoints carry frozen banks (the eval pass
    freezes them) and the final one embeds optimizer state.
    """
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    train_ds, test_ds = prepare_datasets(cfg)
    rng = np.random.default_rng(cfg.seed)
    model = Model(cfg, rng)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)

    with open(os.path.join(cfg.out_dir, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(cfg.to_json() + "\n")

    metrics_rows = ["epoch,train_loss,train_acc,test_acc,lr"]
    timing_rows = ["epoch,wall_ms"]
    best_acc = -1.0
    last_grad_norm = 0.0
    last_lr = 0.0
    n = len(train_ds)
    steps = max(1, (n + cfg.batch_size - 1) // cfg.batch_size)

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n)
        loss_sum = 0.0
        seen = 0
        correct = 0
        for step_i in range(steps):
            idx = perm[step_i * cfg.batch_size:(step_i + 1) * cfg.batch_size]
            if len(idx) == 0:
                continue
            images = train_ds.images[idx]
            labels = train_ds.labels[idx]
            if cfg.augment:
                images = np.stack([data_mod.augment(img, rng) for img in images])
            x = data_mod.standardize(images, cfg.norm_mean, cfg.norm_std)
            lr = lr_at(epoch + (step_i + 0.5) / steps, cfg)
            last_lr = lr
            try:
                logits = model.forward(x, mode="train", labels=labels, rng=rng)
                loss = ad.cross_entropy(logits, labels)
                ad.zero_grad(params.values())
                ad.backward(loss)
            except FloatingPointError as e:
                raise TrainingDiverged(
                    f"non-finite value at epoch {epoch} step {step_i}: {e}; "
                    f"last_lr={last_lr:.6e} last_grad_norm={last_grad_norm:.6e}") from None
            last_grad_norm = float(np.sqrt(sum(
                float((p.grad ** 2).sum()) for p in params.values() if p.grad is not None)))
            opt.step(lr=lr)
            loss_sum += float(loss.value.reshape(())) * len(idx)
            correct += int((logits.value.argmax(axis=1) == labels).sum())
            seen += len(idx)
        test_acc = evaluate(model, test_ds)
        train_loss = loss_sum / seen
        train_acc = correct / seen
        metrics_rows.append(",".join([str(epoch), _fmt(train_loss), _fmt(train_acc),
                                      _fmt(test_acc), _fmt(last_lr)]))
        timing_rows.append(f"{epoch},{(time.perf_counter() - t0) * 1000.0:.1f}")
        if test_acc > best_acc:
            best_acc = test_acc
            save_checkpoint(model, os.path.join(cfg.out_dir, "best.ckpt"), rng=rng,
                            extra={"epoch": epoch, "test_acc": test_acc})
        log(f"epoch {epoch}: loss {train_loss:.4f} train_acc {train_acc:.4f} "
            f"test_acc {test_acc:.4f}")

    save_checkpoint(model, os.path.join(cfg.out_dir, "final.ckpt"), rng=rng,
                    extra={"epoch": cfg.epochs - 1, "test_acc": test_acc},
                    optimizer=opt)
    with open(os.path.join(cfg.out_dir, "metrics.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(metrics_rows) + "\n")
    with open(os.path.join(cfg.out_dir, "timings.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(timing_rows) + "\n")
    return {"final_test_acc": test_acc, "best_test_acc": best_acc,
            "train_loss": train_loss, "out_dir": cfg.out_dir, "epochs": cfg.epochs}
