"""Acceptance gate: one printed verdict line per criterion.

Each test prints "[acceptance] <criterion>: PASS/FAIL/SKIP (...)" outside
pytest capture so the verdicts survive into piped logs. Criteria that need
the real fashion-mnist files skip with a machine-readable reason unless
HMN_DATA_DIR points at them and HMN_RUN_FULL_ACCEPTANCE=1 opts into the
long desk-scale runs.
"""

import dataclasses
import gzip
import json
import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from hmn.analysis import consistency, hit_rate, robustness, sweep
from hmn.autodiff import Tensor, zero_grad
from hmn.config import load_config
from hmn.data import (DataFormatError, load_cifar10, load_fashion_mnist)
from hmn.gradcheck import model_gradcheck
from hmn.memory import MemoryBank
from hmn.model import Model, load_checkpoint
from hmn.retrieval import refine_rows, retrieve_rows, variance_probe
from hmn.train import evaluate, train, train_step

from conftest import make_tiny_cfg
from test_kernels import oracle_unfold
from test_memory import check_against_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = os.environ.get("HMN_DATA_DIR", "")
FULL = os.environ.get("HMN_RUN_FULL_ACCEPTANCE", "") == "1"
GATE_REASON = ("needs fashion-mnist files: set HMN_DATA_DIR=<dir with idx files> "
               "and HMN_RUN_FULL_ACCEPTANCE=1")


def report(capfd, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capfd.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


def gate(capfd, name):
    if DATA_DIR and FULL:
        return
    with capfd.disabled():
        print(f"[acceptance] {name}: SKIP ({GATE_REASON})", flush=True)
    pytest.skip(GATE_REASON)


_desk = {}


def desk_run(tmp_path_factory):
    """Train the bundled desk recipe once and share it across criteria."""
    if "summary" not in _desk:
        cfg = dataclasses.replace(load_config(CONFIG_DIR / "fashion_desk.json"),
                                  data_dir=DATA_DIR,
                                  out_dir=str(tmp_path_factory.mktemp("desk") / "run"))
        _desk["cfg"] = cfg
        _desk["summary"] = train(cfg, log=lambda *_: None)
    return _desk["cfg"], _desk["summary"]


# -------------------------------------------------------------- criterion 1

def test_gradient_check(capfd):
    t0 = time.perf_counter()
    errs = {t: model_gradcheck(t_steps=t, seed=0) for t in (1, 2)}
    dt = time.perf_counter() - t0
    ok = all(e < 1e-4 for e in errs.values()) and dt < 60.0
    report(capfd, "criterion 1, finite-difference gradient check", ok,
           f"max_rel_err T=1 {errs[1]:.2e}, T=2 {errs[2]:.2e}, {dt:.1f}s")


# -------------------------------------------------------------- criterion 2

def refinement_energies(z0, bank, beta, steps):
    """½‖m(z_t) − z_t‖² for t < steps, stepping refine_rows one step at a time."""
    z = Tensor(np.asarray(z0, dtype=np.float64).reshape(1, -1))
    energies = []
    for _ in range(steps):
        _, m = retrieve_rows(z, bank)
        energies.append(float(0.5 * ((m.value - z.value) ** 2).sum()))
        z, _ = refine_rows(z, bank, beta, 1)
    return energies


def test_refinement_contraction(capfd):
    gen = np.random.default_rng(7)
    slot = gen.standard_normal(6)
    z0 = gen.standard_normal(6)
    worst = 0.0
    # a single-slot bank pins the retrieved prototype, isolating the update
    for beta in (0.2, 0.5, 1.0, 1.5):
        bank = MemoryBank(1, 1, 6)
        bank.write(slot.reshape(1, -1), [0])
        energies = refinement_energies(z0, bank, beta, 6)
        e0 = 0.5 * ((slot - z0) ** 2).sum()
        assert len(energies) == 6
        for t, got in enumerate(energies):
            want = e0 * (1.0 - beta) ** (2 * t)
            worst = max(worst, abs(got - want) / max(e0, 1.0))
    # with live re-retrieval the energies must at least stay finite
    multi = MemoryBank(3, 9, 6)
    multi.write(gen.standard_normal((9, 6)), np.arange(9) % 3)
    menergies = refinement_energies(z0, multi, 0.2, 5)
    finite = all(np.isfinite(e) for e in menergies) and len(menergies) == 5
    ok = worst <= 1e-12 and finite
    report(capfd, "criterion 2, per-step error contraction by (1-beta)^2", ok,
           f"worst deviation {worst:.2e} across beta grid, "
           f"re-retrieval trace finite {finite}")


# -------------------------------------------------------------- criterion 3

def test_query_scale_variance(capfd):
    t0 = time.perf_counter()
    results = {d: variance_probe(d, 100000, seed=0) for d in (64, 256)}
    dt = time.perf_counter() - t0
    raw_ok = all(abs(raw * d - 1.0) <= 0.15 for d, (raw, _) in results.items())
    scaled_ok = all(0.85 <= s <= 1.15 for _, s in results.values())
    ok = raw_ok and scaled_ok and dt < 10.0
    report(capfd, "criterion 3, scaled dot-product variance is dimension-free", ok,
           f"raw*dim {results[64][0] * 64:.3f}/{results[256][0] * 256:.3f}, "
           f"scaled {results[64][1]:.3f}/{results[256][1]:.3f}, {dt:.1f}s")


# -------------------------------------------------------------- criterion 4

def test_structural_equivalences(capfd, tmp_path, rng):
    # (a) zero refinement steps and zero step size take the same read-free path
    cfg = make_tiny_cfg(tmp_path, t_steps=1)
    model = Model(cfg, np.random.default_rng(3))
    x = rng.standard_normal((4, 1, 8, 8))
    gen = np.random.default_rng(5)
    labels = np.array([0, 1, 0, 1])
    train_step(model, x, labels, gen)
    train_step(model, x, labels, gen)
    zero_grad(model.parameters().values())
    for name, p in model.parameters().items():
        if "head_w" in name:
            p.value = rng.standard_normal(p.value.shape) * 0.5
    y_t0 = model.forward(x, mode="eval", t_override=0).value
    for name, p in model.parameters().items():
        if "beta" in name:
            p.value = np.zeros_like(p.value)
    y_b0 = model.forward(x, mode="eval").value
    a = bool((y_t0 == y_b0).all())

    # (b) reading an empty bank is the same as not reading at all
    fresh = Model(make_tiny_cfg(tmp_path / "f", t_steps=1), np.random.default_rng(4))
    for name, p in fresh.parameters().items():
        if "head_w" in name:
            p.value = rng.standard_normal(p.value.shape) * 0.5
    b = bool((fresh.forward(x, mode="eval").value
              == fresh.forward(x, mode="eval", t_override=0).value).all())

    # (c) bank eviction matches a keep-last-capacity list oracle
    writes = [(rng.standard_normal(3), int(rng.integers(0, 5))) for _ in range(10000)]
    check_against_oracle(5, 23, 3, writes)

    # (d) neighborhood gather matches an index-arithmetic nested loop
    from hmn import kernels
    d_ok = True
    for _ in range(100):
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5]))
        grid = rng.standard_normal((h, w, d))
        d_ok = d_ok and bool(
            (kernels.unfold_grid(grid, k) == oracle_unfold(grid, k)).all())

    ok = a and b and d_ok
    report(capfd, "criterion 4, structural equivalences", ok,
           f"T=0==beta=0 {a}, empty-bank==T=0 {b}, ring oracle 10000 writes True, "
           f"unfold oracle 100 grids {d_ok}")


# ------------------------------------------------------------- criterion 5a

def test_synthetic_smoke_accuracy(capfd, tmp_path):
    cfg = dataclasses.replace(load_config(CONFIG_DIR / "synth_smoke.json"),
                              out_dir=str(tmp_path / "run"))
    t0 = time.perf_counter()
    summary = train(cfg, log=lambda *_: None)
    dt = time.perf_counter() - t0
    ok = summary["best_test_acc"] >= 0.95 and cfg.epochs <= 10 and dt < 120.0
    report(capfd, "criterion 5a, synthetic two-class accuracy >= 95%", ok,
           f"best {summary['best_test_acc']:.3f} in {cfg.epochs} epochs, {dt:.1f}s")


# ------------------------------------------------------------- criterion 5b

def test_fashion_desk_accuracy(capfd, tmp_path_factory):
    gate(capfd, "criterion 5b, fashion-mnist 10% desk recipe >= 80%")
    cfg, summary = desk_run(tmp_path_factory)
    ok = summary["best_test_acc"] >= 0.80
    report(capfd, "criterion 5b, fashion-mnist 10% desk recipe >= 80%", ok,
           f"best {summary['best_test_acc']:.4f} over {cfg.epochs} epochs")


# -------------------------------------------------------------- criterion 6

def test_hit_rate_above_chance(capfd, tmp_path_factory):
    gate(capfd, "criterion 6, slot hit rate >= 2x chance")
    cfg, _ = desk_run(tmp_path_factory)
    model, _, _ = load_checkpoint(os.path.join(cfg.out_dir, "final.ckpt"))
    from hmn.train import prepare_datasets
    _, test = prepare_datasets(dataclasses.replace(cfg, data_dir=DATA_DIR))
    reports = {b: hit_rate(model, test, branch=b) for b in ("local", "global")}
    g = reports["global"]
    ok = g["top1_pct"] >= 2.0 * g["chance_top1_pct"]
    report(capfd, "criterion 6, slot hit rate >= 2x chance", ok,
           ", ".join(f"{b} top1 {r['top1_pct']:.1f}% vs chance {r['chance_top1_pct']:.1f}%"
                     for b, r in reports.items()))


# ------------------------------------------------------------- criterion 7a

def test_zero_severity_protocol_exactness(capfd, trained_tiny):
    cfg, summary, out_dir = trained_tiny
    model, _, _ = load_checkpoint(os.path.join(out_dir, "final.ckpt"))
    from hmn.train import prepare_datasets
    _, test = prepare_datasets(cfg)
    rows = consistency(model, test, family="occlusion_px", grid=[2], seed=5)
    ident = rows[0]
    cons_ok = (ident["severity"] == 0
               and ident["top5_consistency_pct"] == 100.0
               and ident["mean_top1_cosine"] == 1.0)
    clean = evaluate(model, test)
    rrows = robustness([("tiny", model)], test, grids={"gaussian": [0.1]}, seed=5)
    rob_ok = rrows[0]["severity"] == 0.0 and rrows[0]["accuracy"] == clean
    ok = cons_ok and rob_ok
    report(capfd, "criterion 7a, identity-severity rows are exact", ok,
           f"consistency 100%/cos 1.0 {cons_ok}, identity accuracy == clean {rob_ok}")


# ------------------------------------------------------------- criterion 7b

def test_refinement_helps_under_corruption(capfd, tmp_path_factory):
    gate(capfd, "criterion 7b, refinement holds up under corruption")
    cfg, _ = desk_run(tmp_path_factory)
    root = str(tmp_path_factory.mktemp("tsweep"))
    base = dataclasses.replace(cfg, data_dir=DATA_DIR)
    runs = sweep(base, "T", [0, 1], seeds=[0, 1, 2], out_root=root,
                 log=lambda *_: None)
    from hmn.train import prepare_datasets
    _, test = prepare_datasets(base)
    means = {0: [], 1: []}
    for r in runs:
        model, _, _ = load_checkpoint(os.path.join(r["out_dir"], "final.ckpt"))
        rows = robustness([(f"T={r['value']}", model)], test, seed=99)
        means[r["value"]].append([x for x in rows if x["family"] == "all"][0]["accuracy"])
    m0, m1 = float(np.mean(means[0])), float(np.mean(means[1]))
    # refinement must not cost more than half an accuracy point under corruption
    ok = m1 >= m0 - 0.005
    report(capfd, "criterion 7b, refinement holds up under corruption", ok,
           f"T=1 mean {m1:.4f} vs T=0 mean {m0:.4f} over 3 seeds")


# -------------------------------------------------------------- criterion 8

def test_reproducibility(capfd, tmp_path):
    a = make_tiny_cfg(tmp_path / "a", epochs=2, synth_train_per_class=20,
                      synth_test_per_class=5)
    b = make_tiny_cfg(tmp_path / "b", epochs=2, synth_train_per_class=20,
                      synth_test_per_class=5)
    sa = train(a, log=lambda *_: None)
    sb = train(b, log=lambda *_: None)
    files_equal = all(
        Path(a.out_dir, n).read_bytes() == Path(b.out_dir, n).read_bytes()
        for n in ("config.json", "metrics.csv", "best.ckpt", "final.ckpt"))
    model, _, _ = load_checkpoint(os.path.join(a.out_dir, "final.ckpt"))
    from hmn.model import save_checkpoint
    from hmn.train import prepare_datasets
    save_checkpoint(model, os.path.join(a.out_dir, "rt.ckpt"))
    clone, _, _ = load_checkpoint(os.path.join(a.out_dir, "rt.ckpt"))
    _, test = prepare_datasets(a)
    x = test.images[:6]
    bit_exact = bool((model.forward(x, mode="eval").value
                      == clone.forward(x, mode="eval").value).all())
    acc_match = evaluate(model, test) == sa["final_test_acc"]
    same_summary = ({k: v for k, v in sa.items() if k != "out_dir"}
                    == {k: v for k, v in sb.items() if k != "out_dir"})
    ok = files_equal and same_summary and bit_exact and acc_match
    report(capfd, "criterion 8, bit-identical reruns and checkpoint round trip", ok,
           f"4 files byte-identical {files_equal}, round-trip forward bit-exact "
           f"{bit_exact}, reloaded accuracy matches {acc_match}")


# -------------------------------------------------------------- criterion 9

def _write_cifar_dir(root, n_records=10000):
    os.makedirs(root, exist_ok=True)
    rec = np.zeros((n_records, 3073), dtype=np.uint8)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        rec.tofile(os.path.join(root, name))


def _write_idx_dir(root, n_train=60000, n_test=10000):
    os.makedirs(root, exist_ok=True)
    for stem, n in (("train", n_train), ("t10k", n_test)):
        img = struct.pack(">IIII", 0x803, n, 28, 28) + bytes(n * 784)
        lbl = struct.pack(">II", 0x801, n) + bytes(n)
        with gzip.open(os.path.join(root, f"{stem}-images-idx3-ubyte.gz"), "wb") as fh:
            fh.write(img)
        with gzip.open(os.path.join(root, f"{stem}-labels-idx1-ubyte.gz"), "wb") as fh:
            fh.write(lbl)


def _cli_train_rejects(tmp_path, tag, dataset, data_root):
    """Run the train command against a data dir in-process; True when it
    fails with rc 1 and a one-line DataFormatError json record."""
    import contextlib
    import io

    from hmn.cli import main
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps({
        "dataset": dataset, "data_dir": str(data_root),
        "out_dir": str(tmp_path / f"{tag}_out"), "epochs": 1,
        "warmup_epochs": 0}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["train", "--config", str(cfg_path)])
    lines = err.getvalue().strip().split("\n")
    return (rc != 0 and len(lines) == 1
            and json.loads(lines[0])["error"] == "DataFormatError")


def test_format_conformance(capfd, tmp_path):
    cifar_root = tmp_path / "cifar"
    _write_cifar_dir(cifar_root)
    try:
        train_ds, test_ds = load_cifar10(str(cifar_root))
        cifar_ok = len(train_ds) == 50000 and len(test_ds) == 10000
        del train_ds, test_ds
    finally:
        for p in cifar_root.iterdir():
            p.unlink()

    idx_root = tmp_path / "fmnist"
    _write_idx_dir(idx_root)
    tr, te = load_fashion_mnist(str(idx_root))
    idx_ok = len(tr) == 60000 and len(te) == 10000

    # five distinct malformed cifar archives; the loader and the cli must
    # both refuse each one (the cli with rc 1 and a one-line json error)
    cifar_rejects = 0
    for case in ("notmult", "short", "long", "label", "missing"):
        root = tmp_path / f"cifar_{case}"
        n = {"short": 9999, "long": 10001}.get(case, 10000)
        _write_cifar_dir(root, n_records=n)
        if case == "notmult":
            with open(root / "data_batch_2.bin", "ab") as fh:
                fh.write(b"\x00" * 100)
        elif case == "label":
            blob = bytearray((root / "test_batch.bin").read_bytes())
            blob[0] = 10
            (root / "test_batch.bin").write_bytes(bytes(blob))
        elif case == "missing":
            (root / "data_batch_4.bin").unlink()
        with pytest.raises(DataFormatError):
            load_cifar10(str(root))
        if _cli_train_rejects(tmp_path, f"cifar_{case}", "cifar10", root):
            cifar_rejects += 1
        for p in root.iterdir():
            p.unlink()

    # five distinct malformed idx archives, same contract
    idx_rejects = 0
    for case in ("img_magic", "lbl_magic", "hdr_trunc", "payload", "count"):
        root = tmp_path / f"idx_{case}"
        _write_idx_dir(root, n_train=60000)
        name = {"lbl_magic": "train-labels-idx1-ubyte.gz"}.get(
            case, "train-images-idx3-ubyte.gz")
        with gzip.open(root / name, "rb") as fh:
            blob = bytearray(fh.read())
        if case in ("img_magic", "lbl_magic"):
            blob[:4] = struct.pack(">I", 0x123)
        elif case == "hdr_trunc":
            blob = blob[:10]
        elif case == "payload":
            blob += b"\x00"
        elif case == "count":
            blob[4:8] = struct.pack(">I", 59999)  # labels still say 60000
            blob = blob[:16] + blob[16:16 + 59999 * 784]
        with gzip.open(root / name, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(DataFormatError):
            load_fashion_mnist(str(root))
        if _cli_train_rejects(tmp_path, f"idx_{case}", "fashion_mnist", root):
            idx_rejects += 1

    # one case through a real subprocess to pin the process exit code itself
    bad_root = tmp_path / "cli_bad"
    _write_idx_dir(bad_root, n_train=60000)
    with gzip.open(bad_root / "train-images-idx3-ubyte.gz", "rb") as fh:
        blob = bytearray(fh.read())
    blob[:4] = struct.pack(">I", 0x999)
    with gzip.open(bad_root / "train-images-idx3-ubyte.gz", "wb") as fh:
        fh.write(bytes(blob))
    cfg_path = tmp_path / "bad_cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": "fashion_mnist", "data_dir": str(bad_root),
        "out_dir": str(tmp_path / "bad_out"), "epochs": 1, "warmup_epochs": 0}))
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "hmn.cli", "train", "--config", str(cfg_path)],
        capture_output=True, text=True)
    err_lines = proc.stderr.strip().split("\n")
    cli_ok = (proc.returncode != 0 and len(err_lines) == 1
              and json.loads(err_lines[0])["error"] == "DataFormatError")

    ok = cifar_ok and idx_ok and cifar_rejects == 5 and idx_rejects == 5 and cli_ok
    report(capfd, "criterion 9, on-disk format conformance", ok,
           f"well-formed cifar+idx load {cifar_ok and idx_ok}, "
           f"cli rejected {cifar_rejects}/5 cifar and {idx_rejects}/5 idx "
           f"corruptions, subprocess exit code nonzero {cli_ok}")
