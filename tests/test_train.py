"""Training loop: outputs, determinism, lr bookkeeping, divergence."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hmn
import hmn.autodiff as ad
import hmn.train as train_mod
from hmn import _blas
from hmn.analysis import hit_rate
from hmn.cli import main
from hmn.data import synth_blobs
from hmn.model import Model, blas_threads, load_checkpoint, save_checkpoint
from hmn.optim import lr_at
from hmn.train import TrainingDiverged, evaluate, prepare_datasets, train, train_step

from conftest import make_tiny_cfg


def read_metrics(out_dir):
    lines = Path(out_dir, "metrics.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_run_outputs(trained_tiny):
    cfg, summary, out_dir = trained_tiny
    for name in ("config.json", "metrics.csv", "timings.csv", "best.ckpt",
                 "final.ckpt"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    assert Path(out_dir, "config.json").read_text() == cfg.to_json() + "\n"
    header, rows = read_metrics(out_dir)
    assert header == ["epoch", "train_loss", "train_acc", "test_acc", "lr"]
    assert len(rows) == cfg.epochs
    assert [r["epoch"] for r in rows] == [str(e) for e in range(cfg.epochs)]
    for r in rows:
        assert 0.0 <= float(r["train_acc"]) <= 1.0
        assert 0.0 <= float(r["test_acc"]) <= 1.0
    timing_lines = Path(out_dir, "timings.csv").read_text().strip().split("\n")
    assert timing_lines[0] == "epoch,wall_ms"
    assert len(timing_lines) == 1 + cfg.epochs


def test_summary_matches_metrics(trained_tiny):
    cfg, summary, out_dir = trained_tiny
    _, rows = read_metrics(out_dir)
    assert float(rows[-1]["test_acc"]) == summary["final_test_acc"]
    assert float(rows[-1]["train_loss"]) == summary["train_loss"]
    assert max(float(r["test_acc"]) for r in rows) == summary["best_test_acc"]
    assert summary["epochs"] == cfg.epochs


def test_best_checkpoint_tracks_peak_accuracy(trained_tiny):
    cfg, summary, out_dir = trained_tiny
    _, meta, _ = load_checkpoint(os.path.join(out_dir, "best.ckpt"))
    assert meta["test_acc"] == summary["best_test_acc"]
    _, rows = read_metrics(out_dir)
    # saved at the first epoch that reached the peak (strict improvement)
    first = next(i for i, r in enumerate(rows)
                 if float(r["test_acc"]) == summary["best_test_acc"])
    assert meta["epoch"] == first


def test_lr_column_is_last_step_of_epoch(trained_tiny):
    cfg, _, out_dir = trained_tiny
    _, rows = read_metrics(out_dir)
    n = cfg.synth_train_per_class * cfg.num_classes
    steps = (n + cfg.batch_size - 1) // cfg.batch_size
    for e, r in enumerate(rows):
        want = lr_at(e + (steps - 0.5) / steps, cfg)
        assert r["lr"] == repr(float(want))


def test_seed_repeat_is_byte_identical(tmp_path):
    cfg_a = make_tiny_cfg(tmp_path / "a", epochs=2, synth_train_per_class=20,
                          synth_test_per_class=5)
    cfg_b = make_tiny_cfg(tmp_path / "b", epochs=2, synth_train_per_class=20,
                          synth_test_per_class=5)
    train(cfg_a, log=lambda *_: None)
    train(cfg_b, log=lambda *_: None)
    for name in ("config.json", "metrics.csv", "best.ckpt", "final.ckpt"):
        a = Path(cfg_a.out_dir, name).read_bytes()
        b = Path(cfg_b.out_dir, name).read_bytes()
        assert a == b, name


def checkpoint_meta(path):
    """A checkpoint's JSON metadata: after the magic, version and config blob."""
    blob = Path(path).read_bytes()
    (n,) = struct.unpack_from("<Q", blob, 8)
    (m,) = struct.unpack_from("<Q", blob, 16 + n)
    return json.loads(blob[24 + n:24 + n + m])


@pytest.mark.parametrize("threads", sorted({1, min(2, len(os.sched_getaffinity(0)))}))
def test_rerun_at_a_fixed_blas_thread_count_is_byte_identical(tmp_path, threads):
    """Two training processes at the same OPENBLAS_NUM_THREADS write the same
    metrics.csv and final.ckpt, and the checkpoint records that setting."""
    src = str(Path(hmn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    outs = []
    for run in ("a", "b"):
        cfg = make_tiny_cfg(tmp_path / run)
        cfg_path = tmp_path / f"{run}.json"
        cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
        subprocess.run([sys.executable, "-m", "hmn.cli", "train", "--config", str(cfg_path)],
                       env=env, check=True, capture_output=True)
        outs.append(Path(cfg.out_dir))
    for name in ("metrics.csv", "final.ckpt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert checkpoint_meta(outs[0] / "final.ckpt")["blas_threads"] == str(threads)


def split_checkpoint(path):
    """(bytes before the metadata, metadata dict, bytes after it)."""
    blob = Path(path).read_bytes()
    (n,) = struct.unpack_from("<Q", blob, 8)
    (m,) = struct.unpack_from("<Q", blob, 16 + n)
    return blob[:16 + n], json.loads(blob[24 + n:24 + n + m]), blob[24 + n + m:]


def test_training_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """Training at OPENBLAS_NUM_THREADS=1 and at min(2, nproc) writes the same
    metrics.csv and checkpoint records, and the saved checkpoint gives the
    same hit_rate reports. k_local = 500 makes a local read whose 500-slot
    mix rounds differently at 1 and 2 BLAS threads unless the model pins
    its GEMMs to one."""
    threads = min(2, len(os.sched_getaffinity(0)))
    if threads < 2:
        pytest.skip("one usable CPU: there is no second BLAS thread count to compare")
    if _blas.threads() is None:
        pytest.skip("no OpenBLAS found through ctypes: the BLAS thread count cannot be pinned")
    src = str(Path(hmn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for n in (1, threads):
        cfg = make_tiny_cfg(tmp_path / str(n), image_size=[16, 16], d_emb=32, d_lat=24,
                            n_blocks=2, k_local=500, k_global=32, write_sample=4,
                            synth_train_per_class=64, synth_test_per_class=16,
                            batch_size=32, epochs=2, warmup_epochs=0)
        cfg_path = tmp_path / f"{n}.json"
        cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
        out = Path(cfg.out_dir)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n), PYTHONPATH=path)
        for argv in (["train", "--config", str(cfg_path)],
                     ["analyze", "hit-rate", "--ckpt", str(out / "final.ckpt"),
                      "--out", str(out / "hit_rate")]):
            subprocess.run([sys.executable, "-m", "hmn.cli", *argv], env=env, check=True,
                           capture_output=True)
        outs.append(out)
    kernel = _blas.kernel()
    print(f"BLAS kernel: {kernel}")
    for name in ("metrics.csv", "hit_rate/hit_rate_local.csv", "hit_rate/hit_rate_global.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (name, kernel)
    for name in ("best.ckpt", "final.ckpt"):
        (head, meta, body), (head2, meta2, body2) = (split_checkpoint(o / name) for o in outs)
        assert head == head2 and body == body2, (name, kernel)
        assert (meta["blas_threads"], meta2["blas_threads"]) == ("1", str(threads))
        meta2["blas_threads"] = "1"
        assert meta == meta2, (name, kernel)


def test_checkpoint_records_the_blas_kernel_and_numpy_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(Model(make_tiny_cfg(tmp_path)), path)
    meta = checkpoint_meta(path)
    assert meta["blas_kernel"] == _blas.kernel() != ""
    assert meta["numpy"] == np.__version__


def test_blas_threads_reads_openblas_then_omp_then_the_usable_cpus(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    assert blas_threads() == "3"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert blas_threads() == "5"
    monkeypatch.delenv("OMP_NUM_THREADS")
    # the CPUs this process may run on, not every CPU of the host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 6})
    monkeypatch.setattr(os, "cpu_count", lambda: 96)
    assert blas_threads() == "3"


def test_rows_of_finished_epochs_survive_a_crash(tmp_path, monkeypatch):
    full = make_tiny_cfg(tmp_path / "full", epochs=3, synth_train_per_class=20,
                         synth_test_per_class=5)
    train(full, log=lambda *_: None)
    calls = []
    evaluate_ = train_mod.evaluate

    def failing_evaluate(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("killed in epoch 1")
        return evaluate_(*args, **kwargs)

    monkeypatch.setattr(train_mod, "evaluate", failing_evaluate)
    cfg = make_tiny_cfg(tmp_path / "crash", epochs=3, synth_train_per_class=20,
                        synth_test_per_class=5)
    with pytest.raises(RuntimeError, match="killed"):
        train(cfg, log=lambda *_: None)
    metrics = Path(cfg.out_dir, "metrics.csv").read_text()
    assert metrics.split("\n")[:2] == Path(full.out_dir, "metrics.csv").read_text().split("\n")[:2]
    assert metrics.count("\n") == 2 and metrics.endswith("\n")
    timings = Path(cfg.out_dir, "timings.csv").read_text().split("\n")
    assert timings[0] == "epoch,wall_ms" and timings[1].startswith("0,") and timings[2:] == [""]
    assert Path(cfg.out_dir, "best.ckpt").exists()
    assert not Path(cfg.out_dir, "final.ckpt").exists()


def test_seed_changes_the_run(tmp_path):
    cfg_a = make_tiny_cfg(tmp_path / "a", epochs=1, warmup_epochs=0,
                          synth_train_per_class=20, synth_test_per_class=5)
    cfg_b = make_tiny_cfg(tmp_path / "b", epochs=1, warmup_epochs=0,
                          synth_train_per_class=20, synth_test_per_class=5,
                          seed=1)
    train(cfg_a, log=lambda *_: None)
    train(cfg_b, log=lambda *_: None)
    a = Path(cfg_a.out_dir, "metrics.csv").read_text()
    b = Path(cfg_b.out_dir, "metrics.csv").read_text()
    assert a != b


def test_near_zero_lr_keeps_chance_level_loss(tmp_path):
    # updates of order 1e-300 leave the zero-output head effectively untouched,
    # so every batch sits at the uniform-prediction loss ln(C), in float32
    cfg = make_tiny_cfg(tmp_path, epochs=1, warmup_epochs=0, lr=1e-300,
                        weight_decay=0.0)
    summary = train(cfg, log=lambda *_: None)
    assert abs(summary["train_loss"] - float(np.log(np.float32(2.0)))) < 1e-10


def empty_split(monkeypatch, which):
    """Make prepare_datasets hand train() an empty train (0) or test (1) set.

    A config cannot ask for an empty synthetic split; a dataset file can
    hold no images."""
    prepare = train_mod.prepare_datasets

    def emptied(cfg):
        splits = list(prepare(cfg))
        splits[which] = splits[which].subset(np.arange(0))
        return tuple(splits)

    monkeypatch.setattr(train_mod, "prepare_datasets", emptied)


def test_empty_training_set_is_rejected_before_the_first_epoch(tmp_path, monkeypatch):
    empty_split(monkeypatch, 0)
    cfg = make_tiny_cfg(tmp_path)
    with pytest.raises(ValueError, match="training set is empty"):
        train(cfg, log=lambda *_: None)
    assert not os.path.exists(os.path.join(cfg.out_dir, "metrics.csv"))


def test_empty_test_set_is_rejected_before_the_first_epoch(tmp_path, monkeypatch):
    empty_split(monkeypatch, 1)
    cfg = make_tiny_cfg(tmp_path)
    with pytest.raises(ValueError, match="test set is empty"):
        train(cfg, log=lambda *_: None)
    for name in ("metrics.csv", "best.ckpt", "final.ckpt"):
        assert not os.path.exists(os.path.join(cfg.out_dir, name))


def test_evaluate_rejects_an_empty_dataset(trained_tiny):
    cfg, _, out_dir = trained_tiny
    model, _, _ = load_checkpoint(os.path.join(out_dir, "final.ckpt"))
    _, test = prepare_datasets(cfg)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, test.subset(np.arange(0)))


@pytest.mark.parametrize("batch_size", [-8, 0])
def test_a_batch_size_below_one_is_rejected(trained_tiny, capsys, batch_size):
    # a negative size once yielded no batch and so accuracy 0, and 0 fell
    # back to the config's size
    cfg, _, out_dir = trained_tiny
    ckpt = os.path.join(out_dir, "final.ckpt")
    model, _, _ = load_checkpoint(ckpt)
    _, test = prepare_datasets(cfg)
    message = f"batch size must be at least 1, got {batch_size}"
    with pytest.raises(ValueError, match=message):
        evaluate(model, test, batch_size)
    with pytest.raises(ValueError, match=message):
        hit_rate(model, test, batch_size=batch_size)
    assert main(["eval", "--ckpt", ckpt, "--batch-size", str(batch_size)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_divergence_reports_location(tmp_path):
    cfg = make_tiny_cfg(tmp_path, epochs=2, warmup_epochs=0, lr=1e150,
                        weight_decay=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged,
                           match=r"non-finite value at epoch \d+ step \d+"):
            train(cfg, log=lambda *_: None)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            train(cfg, log=lambda *_: None)
    except TrainingDiverged as e:
        msg = str(e)
    assert "last_lr=" in msg and "last_grad_norm=" in msg


def test_prepare_datasets_fraction(tmp_path):
    cfg = make_tiny_cfg(tmp_path, fraction=0.5)
    tr, te = prepare_datasets(cfg)
    assert len(tr) == cfg.synth_train_per_class * cfg.num_classes // 2
    counts = np.bincount(tr.labels, minlength=2)
    assert counts.tolist() == [20, 20]
    assert len(te) == cfg.synth_test_per_class * cfg.num_classes


def test_prepare_datasets_imbalance(tmp_path):
    cfg = make_tiny_cfg(tmp_path, imbalance_ratio=4.0)
    tr, _ = prepare_datasets(cfg)
    counts = np.bincount(tr.labels, minlength=2)
    # head class untouched, tail shrunk by the full ratio
    assert counts.tolist() == [40, 10]


def test_evaluate_counts_correct_fraction(trained_tiny):
    cfg, summary, out_dir = trained_tiny
    model, _, _ = load_checkpoint(os.path.join(out_dir, "final.ckpt"))
    _, test = prepare_datasets(cfg)
    acc_small = evaluate(model, test, batch_size=3)
    acc_big = evaluate(model, test, batch_size=64)
    assert acc_small == acc_big == summary["final_test_acc"]


# ----------------------------------------------------------- chunked steps

def step_pair(cfg, dtype, seed=0):
    """Two identical models with identical rngs."""
    return [(Model(cfg, np.random.default_rng(seed), dtype=dtype),
             np.random.default_rng(seed + 1)) for _ in range(2)]


def whole_batch_step(model, x, labels, rng):
    ad.zero_grad(model.parameters().values())
    logits = model.forward(x, mode="train", labels=labels, rng=rng)
    ad.backward(ad.cross_entropy(logits, labels))


def chunked_step(model, x, labels, rng):
    ad.zero_grad(model.parameters().values())
    train_step(model, x, labels, rng)


def assert_same_banks_and_rng(a, b):
    (ma, ra), (mb, rb) = a, b
    for (name, ba), bb in zip(ma.banks().items(), mb.banks().values()):
        assert ba.slots.tobytes() == bb.slots.tobytes(), name
        assert ba.written.tobytes() == bb.written.tobytes(), name
    assert ra.bit_generator.state == rb.bit_generator.state


@pytest.mark.parametrize("batch,dtype", [(124, np.float64), (20, np.float64),
                                         (32, np.float64), (12, np.float32),
                                         (16, np.float32)])
def test_chunked_step_matches_a_whole_batch_step(tmp_path, batch, dtype):
    # 124 images are three full chunks and one of 28. The first step reads
    # empty banks, the second the banks the first filled; the optimizer
    # does not run, so both steps differentiate the same parameters. A
    # batch of one lane (one 16-image tile) makes the whole batch's calls;
    # in a larger one the gradients sum over lanes and chunks
    cfg = make_tiny_cfg(tmp_path, n_blocks=2, t_steps=1)
    ds = synth_blobs(cfg.num_classes, batch, tuple(cfg.image_size), seed=3)
    pair = step_pair(cfg, dtype)
    (whole, rw), (chunked, rc) = pair
    for step in range(2):
        idx = np.random.default_rng(step).permutation(len(ds))[:batch]
        x = (ds.images[idx] - cfg.norm_mean) / cfg.norm_std
        labels = ds.labels[idx]
        whole_batch_step(whole, x, labels, rw)
        chunked_step(chunked, x, labels, rc)
        assert_same_banks_and_rng(*pair)
        assert all(b.any_filled for b in chunked.banks().values())
        for (name, pw), pc in zip(whole.parameters().items(), chunked.parameters().values()):
            gw, gc = pw.grad, pc.grad
            if gw is None:  # β reads no empty bank
                assert step == 0 and gc is None, name
                continue
            assert gc.dtype == dtype and gc.shape == gw.shape, name
            if batch <= ad._TILE:
                assert gc.tobytes() == gw.tobytes(), name
            else:
                # only the sums over lanes and chunks regroup
                assert np.abs(gc - gw).max() <= 1e-12 * np.abs(gw).max(), name


def test_train_step_writes_every_bank_in_place(tmp_path):
    # 40 images are two chunks; the second step overwrites slots the first
    # filled, and each bank keeps its one slot array throughout
    cfg = make_tiny_cfg(tmp_path, n_blocks=2)
    model = Model(cfg, np.random.default_rng(0))
    arrays = [b.slots for b in model.banks().values()]
    rng = np.random.default_rng(1)
    for step in range(2):
        ds = synth_blobs(cfg.num_classes, 20, tuple(cfg.image_size), seed=3 + step)
        before = [a.copy() for a in arrays]
        train_step(model, (ds.images - cfg.norm_mean) / cfg.norm_std, ds.labels, rng)
        for (name, bank), slots, old in zip(model.banks().items(), arrays, before):
            assert bank.slots is slots, name
            assert not np.array_equal(slots, old), name


def test_chunked_step_loss_is_the_batch_mean(tmp_path):
    cfg = make_tiny_cfg(tmp_path, n_blocks=1)
    ds = synth_blobs(cfg.num_classes, 40, tuple(cfg.image_size), seed=3)
    x = (ds.images - cfg.norm_mean) / cfg.norm_std
    model = Model(cfg, np.random.default_rng(0), dtype=np.float64)
    for t in (model.head_w, model.head_b):
        t.value = np.random.default_rng(1).normal(0.0, 0.5, size=t.value.shape)
    with ad.no_grad():
        logits = model.forward(x, mode="eval").value
    want = float(ad.cross_entropy(logits, ds.labels).value)
    loss, right = train_step(model, x, ds.labels, np.random.default_rng(2))
    assert abs(loss - want) <= 1e-13 * want
    assert right == int((logits.argmax(axis=1) == ds.labels).sum())


@pytest.mark.parametrize("bad", [0, 20])
def test_a_non_finite_image_in_either_lane_stops_the_step(tmp_path, bad):
    # a 32-image chunk is two lanes: images 0-15 and 16-31. Either lane's
    # error ends the step only once both lanes have left their forwards,
    # no bank is written, and the BLAS thread count is restored
    cfg = make_tiny_cfg(tmp_path, n_blocks=2)
    model = Model(cfg, np.random.default_rng(0))
    ds = synth_blobs(cfg.num_classes, 16, tuple(cfg.image_size), seed=3)
    x = (ds.images - cfg.norm_mean) / cfg.norm_std
    x[bad] = np.nan
    banks = [(b.slots.copy(), b.written.copy()) for b in model.banks().values()]
    threads = _blas.threads()
    inside, forward = [], model._forward

    def watched(*args):
        inside.append(None)
        try:
            return forward(*args)
        finally:
            inside.pop()

    model._forward = watched
    with pytest.raises(FloatingPointError, match=r"^matmul produced non-finite values$"):
        train_step(model, x, ds.labels, np.random.default_rng(1))
    assert inside == []
    for (slots, written), bank in zip(banks, model.banks().values()):
        assert bank.slots.tobytes() == slots.tobytes()
        assert bank.written.tobytes() == written.tobytes()
    assert _blas.threads() == threads


def test_train_step_restores_the_blas_thread_count(tmp_path):
    cfg = make_tiny_cfg(tmp_path)
    model = Model(cfg, np.random.default_rng(0))
    ds = synth_blobs(cfg.num_classes, 20, tuple(cfg.image_size), seed=3)
    threads = _blas.threads()
    train_step(model, (ds.images - cfg.norm_mean) / cfg.norm_std, ds.labels,
               np.random.default_rng(1))
    assert _blas.threads() == threads


def traced_epoch_peak(tmp_path, batch_size):
    """tracemalloc peak bytes of one small-shape train() epoch."""
    cfg = make_tiny_cfg(tmp_path / str(batch_size), image_size=[16, 16], d_emb=32,
                        d_lat=24, n_blocks=2, k_local=64, k_global=32,
                        synth_train_per_class=64, synth_test_per_class=2,
                        batch_size=batch_size, epochs=1, warmup_epochs=0)
    tracemalloc.start()
    try:
        train(cfg, log=lambda *_: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_step_memory_is_bounded_by_the_chunk(tmp_path):
    # a step holds one chunk's graph at a time, so a 4x larger batch
    # barely raises the peak; a whole-batch graph would raise it about 2.3x
    t0 = time.perf_counter()
    # the process's first epoch also allocates one-time state; keep it out
    traced_epoch_peak(tmp_path / "warm", 32)
    small = traced_epoch_peak(tmp_path, 32)
    large = traced_epoch_peak(tmp_path, 128)
    assert large <= 1.25 * small, (small, large)
    assert time.perf_counter() - t0 < 5.0
