"""Training and evaluation loops.

Determinism contract (same seed, same numpy, same BLAS build running the
same kernel family): all randomness flows from the config seed. Dataset
generation and subsampling use fixed derived seeds; one generator seeded
with cfg.seed then drives, in order, model initialization and, per
epoch, the shuffle followed per batch by augmentation draws (row offset,
column offset, flip; image index order) and write-token sampling (block
by block, then image by image), all drawn before the step's first
forward. Metrics land in metrics.csv; wall-clock goes to a separate
timings.csv so the metrics file is byte-identical across reruns.
The BLAS thread count is not part of the contract where numpy's OpenBLAS
can be reached (``_blas``): train steps and eval forwards run every GEMM
on one BLAS thread, so they make the same calls at any setting. Without
it, some GEMMs, the local memory mix among them, round differently at 1
and 2 threads, and the thread count is part of the contract again.

A train step runs forward and backward over consecutive chunks of
``model._CHUNK`` = 32 images, so it holds one chunk's autodiff graph at a
time rather than the whole batch's; an eval ``Model.forward`` runs in the
same chunks. A chunk's two 16-image tiles, the forward GEMMs' tiles, are
its lanes: each runs its own forward, cross-entropy and backward, the two
concurrently where ``autodiff.lanes`` allows, one after the other
otherwise. Every lane reads the banks as they stood before the step; each
lane's loss is its cross-entropy sum over the batch size. Lane 0's
gradients accumulate in the leaves' .grad, lane 1's in a sink that is
added after them, so the sums have one order at any thread count. After
the last chunk, each bank takes one write of the rows every lane queued
for it, concatenated in lane order, then the optimizer steps once. A
bank stores rows written in parts as it stores them in one write, so an
image's forward bits and the bank state after the step are those of one
whole-batch train forward at one BLAS thread; only the gradient sums
regroup by lane.

``train_step`` is the one bank writer. ``eval_batches``, the one eval-mode
batch loop under ``evaluate`` and every ``hmn.analysis`` diagnostic, opens
no ``no_grad`` scope and makes no chunks of its own: the eval forward
does both. An empty dataset raises ``ValueError`` there, and ``train()``
rejects an empty training or test set up front.
"""

import functools
import os
import time

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from .model import Model, _chunks, save_checkpoint
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


def eval_batches(model, dataset, batch_size=None, capture=None):
    """Yield (labels, logits) per eval batch, in dataset order.

    batch_size None means the config's; any size below 1 raises
    ``ValueError``. A batch's forward runs in ``_CHUNK``-image chunks
    whatever its size, so batch_size sets how many images a yield holds,
    not the forward's working memory. capture goes to each batch's
    ``Model.forward``, which calls it per 16-image tile before the yield.
    """
    if len(dataset) == 0:
        raise ValueError("the dataset is empty; nothing to evaluate")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    cfg = model.cfg
    bsz = cfg.batch_size if batch_size is None else batch_size
    for start in range(0, len(dataset), bsz):
        sl = slice(start, min(start + bsz, len(dataset)))
        x = data_mod.standardize(dataset.images[sl], cfg.norm_mean, cfg.norm_std)
        yield dataset.labels[sl], model.forward(x, capture=capture).value


def evaluate(model, dataset, batch_size=None):
    """Top-1 accuracy in eval mode: banks read, never written; no graph."""
    correct = sum(int((logits.argmax(axis=1) == labels).sum())
                  for labels, logits in eval_batches(model, dataset, batch_size))
    return correct / len(dataset)


def _fmt(x):
    return repr(float(x))


def _write_line(path, line, mode="a"):
    # closing flushes, so every finished epoch's row is on disk
    with open(path, mode, encoding="utf-8", newline="\n") as fh:
        fh.write(line + "\n")


def train_step(model, x, labels, rng):
    """Forward and backward over a batch in consecutive _CHUNK-image
    chunks, lane by lane, then one write per bank of every lane's rows, in
    lane order; returns (mean loss, count of correct argmaxes).

    The write tokens of all blocks are drawn first, so the rng stream is
    that of ``Model.forward(mode="train")``. A chunk's lanes are its
    16-image tiles; the two run concurrently where ``autodiff.lanes``
    allows, every GEMM on one BLAS thread, so the result does not depend
    on the BLAS thread count. A lane's reads queue the rows the banks
    store through its capture, ``model._writer``, and every lane reads the
    banks as they stood before the step. Each lane's loss is its
    cross-entropy sum divided by the batch size. Its gradients add into
    the leaves' .grad, which the caller zeroes before and steps the
    optimizer on after: lane 0's directly, lane 1's through a sink added
    once both lanes are done. An error in either lane is raised once both
    have stopped, before any bank is written. Each bank then takes one
    ``write`` of its queued rows concatenated in lane order, so it builds
    its keys once per step.
    """
    x = model._images(x)
    b = len(x)
    picks = model._write_tokens(b, rng)
    loss_sum, correct, pending = 0.0, 0, {}

    def lane(tile, sink):
        writes = []
        logits = model._forward(x[tile], model.cfg.t_steps,
                                model._writer(picks[:, tile], labels[tile], writes))
        loss = ad.cross_entropy(logits, labels[tile], b)
        ad.backward(loss, sink)
        return float(loss.value), int((logits.value.argmax(axis=1) == labels[tile]).sum()), writes

    with ad.lanes() as lanes:
        for tiles in _chunks(b):
            sink = {}
            done = lanes.run([functools.partial(lane, tile, sink if i else None)
                              for i, tile in enumerate(tiles)])
            ad.accumulate(sink)
            for loss, right, writes in done:
                loss_sum += loss
                correct += right
                for bank, rows, cls in writes:
                    pending.setdefault(bank, []).append((rows, cls))
    for bank, parts in pending.items():
        rows, cls = zip(*parts)
        bank.write(np.concatenate(rows), np.concatenate(cls))
    return loss_sum, correct


def train(cfg, log=print):
    """Run the full recipe; returns a summary dict.

    Writes metrics.csv, timings.csv, config.json, best.ckpt, final.ckpt
    under cfg.out_dir. The CSVs gain one row per finished epoch. The final
    checkpoint embeds optimizer state.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    train_ds, test_ds = prepare_datasets(cfg)
    if len(train_ds) == 0:
        raise ValueError("the training set is empty; nothing to train on")
    if len(test_ds) == 0:
        raise ValueError("the test set is empty; nothing to evaluate on")
    rng = np.random.default_rng(cfg.seed)
    model = Model(cfg, rng)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)

    _write_line(os.path.join(cfg.out_dir, "config.json"), cfg.to_json(), mode="w")
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    timings_path = os.path.join(cfg.out_dir, "timings.csv")
    _write_line(metrics_path, "epoch,train_loss,train_acc,test_acc,lr", mode="w")
    _write_line(timings_path, "epoch,wall_ms", mode="w")
    best_acc = -1.0
    last_grad_norm = 0.0
    n = len(train_ds)
    steps = (n + cfg.batch_size - 1) // cfg.batch_size

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for step_i in range(steps):
            idx = perm[step_i * cfg.batch_size:(step_i + 1) * cfg.batch_size]
            images = train_ds.images[idx]
            labels = train_ds.labels[idx]
            if cfg.augment:
                images = np.stack([data_mod.augment(img, rng) for img in images])
            x = data_mod.standardize(images, cfg.norm_mean, cfg.norm_std)
            lr = lr_at(epoch + (step_i + 0.5) / steps, cfg)
            ad.zero_grad(params.values())
            try:
                loss, right = train_step(model, x, labels, rng)
            except FloatingPointError as e:
                raise TrainingDiverged(
                    f"non-finite value at epoch {epoch} step {step_i}: {e}; "
                    f"last_lr={lr:.6e} last_grad_norm={last_grad_norm:.6e}") from None
            last_grad_norm = float(np.sqrt(sum(
                float((p.grad ** 2).sum()) for p in params.values() if p.grad is not None)))
            opt.step(lr=lr)
            loss_sum += loss * len(idx)
            correct += right
        test_acc = evaluate(model, test_ds)
        train_loss = loss_sum / n
        train_acc = correct / n
        _write_line(metrics_path, ",".join([str(epoch), _fmt(train_loss), _fmt(train_acc),
                                            _fmt(test_acc), _fmt(lr)]))
        _write_line(timings_path, f"{epoch},{(time.perf_counter() - t0) * 1000.0:.1f}")
        if test_acc > best_acc:
            best_acc = test_acc
            save_checkpoint(model, os.path.join(cfg.out_dir, "best.ckpt"), rng=rng,
                            extra={"epoch": epoch, "test_acc": test_acc})
        log(f"epoch {epoch}: loss {train_loss:.4f} train_acc {train_acc:.4f} "
            f"test_acc {test_acc:.4f}")

    save_checkpoint(model, os.path.join(cfg.out_dir, "final.ckpt"), rng=rng,
                    extra={"epoch": cfg.epochs - 1, "test_acc": test_acc},
                    optimizer=opt)
    return {"final_test_acc": test_acc, "best_test_acc": best_acc,
            "train_loss": train_loss, "out_dir": cfg.out_dir, "epochs": cfg.epochs}
