"""Corruptions, retrieval diagnostics, and the sweep driver."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmn
import hmn.analysis as analysis_mod
import hmn.autodiff as ad
from hmn.analysis import (CONSISTENCY_GRID_PX, DEFAULT_GRIDS, _rank_slots,
                          _sample_rows, consistency, corrupt, corrupt_dataset,
                          hit_rate, robustness, sweep, weight_profile,
                          write_consistency, write_hit_rate_csv, write_robustness,
                          write_sweep, write_weight_profile)
from hmn.data import Dataset, load_dataset, standardize
from hmn.model import Model, load_checkpoint
from hmn.retrieval import retrieve_rows
from hmn.train import evaluate

from conftest import make_tiny_cfg


@pytest.fixture(scope="module")
def tiny_run(trained_tiny):
    cfg, summary, out = trained_tiny
    model, extra, _ = load_checkpoint(os.path.join(cfg.out_dir, "final.ckpt"))
    _, test = load_dataset(cfg)
    return cfg, model, test


# ------------------------------------------------------------- corruptions

def test_gaussian_zero_severity_is_exact_copy(rng):
    img = rng.random((1, 3, 8, 8))
    out = corrupt(img, "gaussian", 0.0, rng)
    np.testing.assert_array_equal(out, img)
    assert out is not img


def test_gaussian_moments(rng):
    # mid-gray input so the [0,1] clip almost never engages
    img = np.full((1, 1, 500, 500), 0.5)
    deltas = []
    for _ in range(4):
        deltas.append(corrupt(img, "gaussian", 0.1, rng) - img)
    d = np.concatenate(deltas).ravel()  # 1e6 samples
    assert abs(d.mean()) < 1e-3
    assert abs(d.std() - 0.1) < 1e-3


def test_occlusion_area_to_side(rng):
    img = np.ones((1, 1, 16, 16))
    out = corrupt(img, "occlusion", 0.25, rng)[0]
    # side = round(sqrt(0.25 * 256)) = 8
    assert (out == 0.0).sum() == 64
    # the zeros form one solid square
    ys, xs = np.nonzero(out[0] == 0.0)
    assert ys.max() - ys.min() == 7 and xs.max() - xs.min() == 7


def test_occlusion_pixel_side(rng):
    img = np.ones((1, 2, 10, 10))
    out = corrupt(img, "occlusion_px", 5, rng)
    assert (out == 0.0).sum() == 2 * 25  # both channels


def test_occlusion_zero_is_copy(rng):
    img = rng.random((1, 1, 8, 8))
    np.testing.assert_array_equal(corrupt(img, "occlusion", 0.0, rng), img)
    np.testing.assert_array_equal(corrupt(img, "occlusion_px", 0, rng), img)


def test_contrast_identity_factor_is_exact_copy(rng):
    img = rng.random((1, 3, 8, 8))
    out = corrupt(img, "contrast", 1.0, rng)
    np.testing.assert_array_equal(out, img)


def test_contrast_preserves_channel_means(rng):
    img = 0.3 + 0.4 * rng.random((1, 3, 8, 8))  # stays clear of the clip
    out = corrupt(img, "contrast", 0.5, rng)
    np.testing.assert_allclose(out.mean(axis=(2, 3)), img.mean(axis=(2, 3)), rtol=1e-12)


def test_contrast_zero_flattens_to_mean(rng):
    img = rng.random((1, 2, 6, 6))
    out = corrupt(img, "contrast", 0.0, rng)
    for c in range(2):
        np.testing.assert_allclose(out[0, c], img[0, c].mean(), rtol=1e-12)


def test_corruption_validation(rng):
    img = np.ones((1, 1, 8, 8))
    with pytest.raises(ValueError):
        corrupt(img, "gaussian", -0.1, rng)
    with pytest.raises(ValueError):
        corrupt(img, "occlusion", 1.0, rng)
    with pytest.raises(ValueError):
        corrupt(img, "occlusion_px", 9, rng)
    with pytest.raises(ValueError):
        corrupt(img, "contrast", -1.0, rng)
    with pytest.raises(ValueError):
        corrupt(img, "vignette", 0.5, rng)


@pytest.mark.parametrize("family,severity,message", [
    ("gaussian", float("nan"), "finite"), ("gaussian", float("inf"), "finite"),
    ("contrast", float("nan"), "finite"), ("contrast", float("inf"), "finite"),
    ("occlusion", float("nan"), "finite"), ("occlusion_px", float("inf"), "finite"),
    ("occlusion_px", 4.5, "whole number"), ("occlusion_px", -0.5, "whole number")])
def test_corrupt_rejects_severities_it_cannot_apply(rng, family, severity, message):
    with pytest.raises(ValueError, match=message):
        corrupt(np.ones((2, 1, 8, 8)), family, severity, rng)


def test_occlusion_side_may_be_a_whole_float():
    img = np.ones((2, 1, 8, 8))
    np.testing.assert_array_equal(corrupt(img, "occlusion_px", 4.0, np.random.default_rng(1)),
                                  corrupt(img, "occlusion_px", 4, np.random.default_rng(1)))


def test_corrupt_dataset_deterministic(rng):
    ds = Dataset(rng.random((6, 1, 8, 8)), np.zeros(6, dtype=np.int64), 1, "x")
    a = corrupt_dataset(ds, "gaussian", 0.2, seed=[9, 0, 1])
    b = corrupt_dataset(ds, "gaussian", 0.2, seed=[9, 0, 1])
    np.testing.assert_array_equal(a.images, b.images)
    assert a.labels is not ds.labels


def reference_corrupt(image, family, severity, rng):
    """One corrupted copy of a (C, H, W) image, the one-image-per-call form
    the batch ``corrupt`` must match draw for draw."""
    img = np.asarray(image, dtype=np.float64)
    c, h, w = img.shape
    if family == "gaussian":
        if severity == 0:
            return img.copy()
        return np.clip(img + rng.normal(0.0, severity, size=img.shape), 0.0, 1.0)
    if family in ("occlusion", "occlusion_px"):
        if family == "occlusion":
            side = int(round(np.sqrt(severity * h * w)))
        else:
            side = int(severity)
        if side == 0:
            return img.copy()
        side = min(side, min(h, w))
        top = int(rng.integers(0, h - side + 1))
        left = int(rng.integers(0, w - side + 1))
        out = img.copy()
        out[:, top:top + side, left:left + side] = 0.0
        return out
    if severity == 1.0:
        return img.copy()
    mean = img.mean(axis=(1, 2), keepdims=True)
    return np.clip(mean + severity * (img - mean), 0.0, 1.0)


IDENTITY = {"gaussian": 0.0, "occlusion": 0.0, "occlusion_px": 0, "contrast": 1.0}

# (family, severity): identity and non-identity severities of every family;
# 0.0005 is an occlusion area that rounds to side 0 at every shape below,
# 0.9 one whose side is clamped to the short edge of the non-square image,
# and 16 a pixel side equal to the short edge
CORRUPTIONS = [("gaussian", 0.0), ("gaussian", 0.1), ("gaussian", 0.3),
               ("occlusion", 0.0), ("occlusion", 0.0005), ("occlusion", 0.1),
               ("occlusion", 0.9),
               ("occlusion_px", 0), ("occlusion_px", 4), ("occlusion_px", 16),
               ("contrast", 1.0), ("contrast", 0.0), ("contrast", 0.5),
               ("contrast", 1.5)]


@pytest.mark.parametrize("family,severity", CORRUPTIONS)
@pytest.mark.parametrize("shape", [(0, 1, 16, 16), (1, 3, 16, 16), (7, 1, 16, 24),
                                   (7, 3, 20, 16)])
def test_batch_corrupt_matches_per_image_reference(family, severity, shape):
    images = np.random.default_rng(5).random(shape)
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    got = corrupt(images, family, severity, rng)
    want = np.array([reference_corrupt(img, family, severity, ref_rng)
                     for img in images]).reshape(shape)
    assert got is not images
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if severity == IDENTITY[family] or (family, severity) == ("occlusion", 0.0005):
        # a copy draws nothing
        assert rng.bit_generator.state == np.random.default_rng(17).bit_generator.state


# ---------------------------------------------------------------- hit rate

def test_rank_slots_stable_on_ties():
    assert _rank_slots(np.array([0.5, 0.5, 0.2])).tolist() == [0, 1, 2]
    assert _rank_slots(np.array([0.1, 0.7, 0.2])).tolist() == [1, 2, 0]
    # ranks along the last axis, each row on its own, ties to the lower slot
    rows = np.array([[0.2, 0.4, 0.2, 0.4],
                     [0.3, 0.3, 0.3, 0.1],
                     [0.1, 0.7, 0.1, 0.1],
                     [0.25, 0.25, 0.25, 0.25]], dtype=np.float32)
    want = [[1, 3, 0, 2], [0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 2, 3]]
    assert _rank_slots(rows).tolist() == want
    assert _rank_slots(np.stack([rows, rows[::-1]])).tolist() == [want, want[::-1]]
    # rows long enough that an unstable sort would reorder the ties
    wide = np.random.default_rng(3).integers(0, 4, size=(5, 200)).astype(np.float32)
    want = [sorted(range(200), key=lambda j: -row[j]) for row in wide]
    assert _rank_slots(wide).tolist() == want


def test_hit_rate_report_structure(tiny_run):
    cfg, model, test = tiny_run
    for branch in ("global", "local"):
        r = hit_rate(model, test, branch=branch)
        assert r["n"] == len(test)
        assert 0.0 <= r["top1_pct"] <= 100.0
        assert r["top5_pct"] >= r["top1_pct"]
        assert r["chance_top1_pct"] == 100.0 / cfg.num_classes
        want5 = 100.0 * (1.0 - (1.0 - 1.0 / cfg.num_classes) ** 5)
        np.testing.assert_allclose(r["chance_top5_pct"], want5, rtol=1e-12)


def test_hit_rate_local_beats_chance_on_learned_task(tiny_run):
    # toy-scale canary: the trained local bank retrieves same-class slots
    cfg, model, test = tiny_run
    r = hit_rate(model, test, branch="local")
    assert r["top1_pct"] >= 2.0 * r["chance_top1_pct"]


def test_hit_rate_all_tokens_mode(tiny_run):
    cfg, model, test = tiny_run
    r = hit_rate(model, test, branch="local", all_tokens=True)
    assert r["all_tokens"] is True
    assert 0.0 <= r["top1_pct"] <= 100.0


def test_hit_rate_reports_all_tokens_only_where_it_applies(tiny_run):
    # the global branch has one row per image: all_tokens changes nothing there
    cfg, model, test = tiny_run
    r = hit_rate(model, test, branch="global", all_tokens=True)
    assert r["all_tokens"] is False
    assert r == hit_rate(model, test, branch="global")


def test_hit_rate_requires_a_filled_bank_and_a_known_branch(tmp_path, tiny_run):
    cfg, _, test = tiny_run
    fresh = Model(make_tiny_cfg(tmp_path))
    with pytest.raises(ValueError, match="empty"):
        hit_rate(fresh, test)
    with pytest.raises(ValueError, match="branch"):
        hit_rate(fresh, test, branch="both")


def test_hit_rate_rejects_an_empty_dataset(tiny_run):
    cfg, model, test = tiny_run
    with pytest.raises(ValueError, match="empty"):
        hit_rate(model, test.subset(np.arange(0)))


def test_hit_rate_csv(tiny_run, tmp_path):
    cfg, model, test = tiny_run
    r = hit_rate(model, test, branch="global")
    path = tmp_path / "hit_rate.csv"
    write_hit_rate_csv(r, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "branch,metric,value"
    assert lines[-1] == f"global,n,{len(test)}"


# ----------------------------------------------------------- weight profile

def float64_replica(model):
    """A float64 model holding the same weights and banks."""
    out = Model(model.cfg, dtype=np.float64)
    for t, src in zip(out.parameters().values(), model.parameters().values()):
        t.value = src.value.astype(np.float64)
    for bank, src in zip(out.banks().values(), model.banks().values()):
        bank.load_state(src.state_dict())
    return out


def test_weight_profile_sums_to_one(tiny_run):
    cfg, model, test = tiny_run
    # the tolerance is float64 rounding; float32 weight rows sum to one
    # only to float32 rounding
    profile, slot_class = weight_profile(float64_replica(model), test, 0, branch="global")
    np.testing.assert_allclose(profile.sum(), 1.0, rtol=1e-9)
    assert profile.shape == (cfg.k_global,)
    assert (profile >= 0).all()


def test_weight_profile_missing_class(tiny_run):
    cfg, model, test = tiny_run
    with pytest.raises(ValueError, match="no samples"):
        weight_profile(model, test, 7)
    with pytest.raises(ValueError, match="branch"):
        weight_profile(model, test, 0, branch="Global")


def test_weight_profile_files(tiny_run, tmp_path):
    cfg, model, test = tiny_run
    profile, slot_class = weight_profile(model, test, 1, branch="global")
    csv_path, svg_path = write_weight_profile(profile, slot_class, 1, tmp_path, "global")
    lines = Path(csv_path).read_text().strip().split("\n")
    assert lines[0] == "slot_id,slot_class,mean_alpha"
    assert len(lines) == 1 + cfg.k_global
    assert Path(svg_path).read_text().startswith("<svg")


# --------------------------------------------------------------- robustness

def test_robustness_identity_rows_equal_clean_accuracy(tiny_run):
    cfg, model, test = tiny_run
    clean = evaluate(model, test)
    rows = robustness([("tiny", model)], test, seed=7)
    by_family = {}
    for r in rows:
        if r["family"] == "all":
            continue
        by_family.setdefault(r["family"], []).append(r)
    assert set(by_family) == set(DEFAULT_GRIDS)
    for family, frows in by_family.items():
        ident = 1.0 if family == "contrast" else 0.0
        ident_rows = [r for r in frows if r["severity"] == ident]
        assert len(ident_rows) == 1
        assert ident_rows[0]["accuracy"] == clean  # exact, no recompute


def test_robustness_mean_row(tiny_run):
    cfg, model, test = tiny_run
    rows = robustness([("tiny", model)], test, seed=7)
    mean_rows = [r for r in rows if r["family"] == "all"]
    assert len(mean_rows) == 1 and mean_rows[0]["severity"] == "mean"
    ident = {"gaussian": 0.0, "occlusion": 0.0, "contrast": 1.0}
    corrupted = [r["accuracy"] for r in rows
                 if r["family"] != "all" and r["severity"] != ident[r["family"]]]
    np.testing.assert_allclose(mean_rows[0]["accuracy"], np.mean(corrupted), rtol=1e-12)


def test_robustness_multiple_models_and_files(tiny_run, tmp_path):
    cfg, model, test = tiny_run
    grids = {"gaussian": [0.1]}
    rows = robustness([("a", model), ("b", model)], test, grids=grids, seed=7)
    assert {r["model"] for r in rows} == {"a", "b"}
    paths = write_robustness(rows, tmp_path)
    lines = Path(paths[0]).read_text().strip().split("\n")
    assert lines[0] == "model,t_steps,family,severity,accuracy,n"
    assert (tmp_path / "robustness_gaussian.svg").exists()


def test_robustness_and_consistency_reject_an_unknown_family(tiny_run):
    cfg, model, test = tiny_run
    valid = r"\['contrast', 'gaussian', 'occlusion', 'occlusion_px'\]"
    with pytest.raises(ValueError, match="'bogus'.*" + valid):
        robustness([("tiny", model)], test, grids={"bogus": [0.1]})
    with pytest.raises(ValueError, match="'bogus'.*" + valid):
        consistency(model, test, family="bogus")


def no_eval(*args, **kwargs):
    raise AssertionError("an eval ran before the grid was checked")


def test_robustness_checks_every_severity_before_the_first_eval(tiny_run, monkeypatch):
    cfg, model, test = tiny_run
    monkeypatch.setattr(analysis_mod, "evaluate", no_eval)
    with pytest.raises(ValueError, match="occlusion area must be in"):
        robustness([("tiny", model)], test, grids={"occlusion": [0.1, 1.5]})


def test_robustness_needs_a_corrupted_severity(tiny_run, monkeypatch):
    cfg, model, test = tiny_run
    monkeypatch.setattr(analysis_mod, "evaluate", no_eval)
    for grids in ({"gaussian": [0.0]}, {"gaussian": [0.0], "contrast": [1.0, 1.0]}):
        with pytest.raises(ValueError, match="corrupted severity"):
            robustness([("tiny", model)], test, grids=grids)


def test_importing_analysis_loads_no_network_modules():
    # svg's escape is local: xml.sax.saxutils would pull in urllib.request,
    # http.client and ssl at every fresh process's import
    heavy = ("xml.sax", "urllib.request", "http.client", "ssl")
    code = f"import sys, hmn.analysis; print([m for m in {heavy!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(hmn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


# -------------------------------------------------------------- consistency

def test_consistency_identity_severity_is_perfect(tiny_run):
    cfg, model, test = tiny_run
    rows = consistency(model, test, family="occlusion_px", grid=[2, 4], seed=11)
    assert [r["severity"] for r in rows] == [0, 2, 4]
    ident = rows[0]
    assert ident["top5_consistency_pct"] == 100.0
    assert ident["mean_top1_cosine"] == 1.0
    for r in rows:
        assert r["branch"] == "global"
        assert 0.0 <= r["top5_consistency_pct"] <= 100.0
        assert -1.0 - 1e-12 <= r["mean_top1_cosine"] <= 1.0 + 1e-12
        assert r["n"] == len(test)


def test_consistency_local_branch(tiny_run):
    cfg, model, test = tiny_run
    rows = consistency(model, test, family="occlusion_px", grid=[2], seed=11,
                       branch="local")
    assert all(r["branch"] == "local" for r in rows)


def test_consistency_files(tiny_run, tmp_path):
    cfg, model, test = tiny_run
    rows = consistency(model, test, family="occlusion_px", grid=[2], seed=11)
    paths = write_consistency(rows, tmp_path)
    lines = Path(paths[0]).read_text().strip().split("\n")
    assert lines[0] == "branch,family,severity,top5_consistency_pct,mean_top1_cosine,n"
    assert len(lines) == 1 + len(rows)


def test_default_consistency_grid_is_pixel_sides():
    assert CONSISTENCY_GRID_PX == [4, 8, 12, 16, 20]


def test_default_consistency_grid_keeps_the_sides_that_fit(tiny_run):
    cfg, model, test = tiny_run
    assert test.images.shape[2:] == (8, 8)
    rows = consistency(model, test, seed=11)
    assert [r["severity"] for r in rows] == [0.0, 4, 8]


@pytest.mark.parametrize("family", sorted(DEFAULT_GRIDS))
def test_default_consistency_grid_follows_the_family(tiny_run, family):
    cfg, model, test = tiny_run
    ident = 1.0 if family == "contrast" else 0.0
    rows = consistency(model, test, family=family, seed=11)
    assert [r["severity"] for r in rows] == [ident] + DEFAULT_GRIDS[family]


def test_consistency_checks_the_grid_before_the_first_eval(tiny_run, monkeypatch):
    cfg, model, test = tiny_run
    monkeypatch.setattr(analysis_mod, "eval_batches", no_eval)
    with pytest.raises(ValueError, match=r"occlusion side must be in \[0, 8\], got 20"):
        consistency(model, test, grid=[4, 20])


# ------------------------------- batch-wide analyses vs a per-image reference

# seven does not divide the tiny test set, so a batch boundary falls inside it
REF_BATCH = 7


def reference_rows(model, dataset, branch, all_tokens=False):
    """Per image: (label, its last-block weight rows), from one forward over
    the whole set, whose capture hook collects every chunk's reads, and a
    plain loop over images. Where refinement read no bank, a plain read of
    the unrefined queries stands in."""
    cfg, last = model.cfg, model.blocks[-1]
    reads = {branch: [], "pool": []}

    def collect(owner, name, q, weights):
        if name == "pool":
            reads[name].append(weights.value)
        elif owner is last and name == branch:
            if weights is None:
                weights, _ = retrieve_rows(ad.Tensor(q.value), last_bank(model, branch))
            reads[name].append(weights.value)

    model.forward(standardize(dataset.images, cfg.norm_mean, cfg.norm_std), capture=collect)
    alpha, pool = (np.concatenate(reads[key]) for key in (branch, "pool"))
    for i, label in enumerate(dataset.labels):
        if branch == "global" or all_tokens:
            yield label, alpha[i]
        else:
            t = int(np.argmax(pool[i]))
            yield label, alpha[i, t:t + 1]


def reference_order(row):
    return np.argsort(-row, kind="stable")


def last_bank(model, branch):
    last = model.blocks[-1]
    return last.bank_local if branch == "local" else last.bank_global


def reference_hit_pcts(model, dataset, branch, all_tokens, topk=(1, 5)):
    slot_class = last_bank(model, branch).filled_view()[1]
    hits = {k: 0.0 for k in topk}
    for label, rows in reference_rows(model, dataset, branch, all_tokens):
        for k in topk:
            hit = 0.0
            for row in rows:
                hit += float(label in slot_class[reference_order(row)[:k]])
            hits[k] += hit / len(rows)
    return {f"top{k}_pct": 100.0 * hits[k] / len(dataset) for k in topk}


@pytest.mark.parametrize("branch,all_tokens",
                         [("global", False), ("local", False), ("local", True)])
def test_hit_rate_matches_per_image_reference(tiny_run, branch, all_tokens):
    cfg, model, test = tiny_run
    report = hit_rate(model, test, branch=branch, all_tokens=all_tokens,
                      batch_size=REF_BATCH)
    want = reference_hit_pcts(model, test, branch, all_tokens)
    got = {key: report[key] for key in want}
    if all_tokens:
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12)
    else:
        assert got == want


@pytest.mark.parametrize("branch", ["global", "local"])
def test_weight_profile_matches_per_image_reference(tiny_run, branch):
    cfg, model, test = tiny_run
    sub = test.subset(np.flatnonzero(test.labels == 1))
    assert len(sub) > REF_BATCH
    acc = np.zeros(last_bank(model, branch).total_slots)
    for _, rows in reference_rows(model, sub, branch):
        acc += rows[0]
    profile, _ = weight_profile(model, test, 1, branch=branch, batch_size=REF_BATCH)
    np.testing.assert_allclose(profile, acc / len(sub), rtol=1e-12)


def unrefined_replica(model, off):
    """A copy of model whose refinement reads no bank: T=0 over the full
    banks ("T0"), or every β zeroed with two of each class's slots filled,
    so every read is masked ("beta0")."""
    cfg = dataclasses.replace(model.cfg, t_steps=0) if off == "T0" else model.cfg
    out = Model(cfg, dtype=model.dtype)
    for t, src in zip(out.parameters().values(), model.parameters().values()):
        t.value = src.value.copy()
    for bank, src in zip(out.banks().values(), model.banks().values()):
        state = src.state_dict()
        if off == "beta0":
            state["written"] = np.minimum(state["written"], 2)
        bank.load_state(state)
    if off == "beta0":
        for blk in out.blocks:
            blk.beta_local.value = np.zeros_like(blk.beta_local.value)
            blk.beta_global.value = np.zeros_like(blk.beta_global.value)
    return out


@pytest.mark.parametrize("branch,all_tokens",
                         [("global", False), ("local", False), ("local", True)])
@pytest.mark.parametrize("off", ["T0", "beta0"])
def test_unrefined_analyses_match_per_image_reference(tiny_run, off, branch, all_tokens):
    """At T=0 and at β=0 the analysis reads the bank itself; its rows equal
    the reference's plain reads bit for bit, and so do its reports."""
    cfg, trained, test = tiny_run
    model = unrefined_replica(trained, off)
    bank = last_bank(model, branch)
    assert off == "T0" or not bank.filled_view()[2].all()
    got = [rows for _, alpha in _sample_rows(model, test, branch, REF_BATCH, all_tokens)
           for rows in alpha]
    want = list(reference_rows(model, test, branch, all_tokens))
    assert len(got) == len(want) == len(test)
    for rows, (_, ref) in zip(got, want):
        np.testing.assert_array_equal(rows, ref)
    report = hit_rate(model, test, branch=branch, all_tokens=all_tokens, batch_size=REF_BATCH)
    pcts = reference_hit_pcts(model, test, branch, all_tokens)
    for key in pcts:
        np.testing.assert_allclose(report[key], pcts[key], rtol=1e-12)
    if all_tokens:
        return
    sub = test.subset(np.flatnonzero(test.labels == 1))
    acc = np.zeros(bank.total_slots)
    for _, ref in reference_rows(model, sub, branch):
        acc += ref[0]
    profile, _ = weight_profile(model, test, 1, branch=branch, batch_size=REF_BATCH)
    np.testing.assert_allclose(profile, acc / len(sub), rtol=1e-12)


def reference_consistency(model, dataset, grid, seed, branch):
    """(top-5 consistency %, mean top-1 cosine) per severity, image by image."""
    slots = last_bank(model, branch).slots

    def tops(ds):
        orders = [reference_order(rows[0]) for _, rows in reference_rows(model, ds, branch)]
        return [int(o[0]) for o in orders], [set(int(s) for s in o[:5]) for o in orders]

    clean1, clean5 = tops(dataset)
    out = []
    for si, sev in enumerate(grid):
        corr1 = clean1 if sev == 0 else tops(
            corrupt_dataset(dataset, "occlusion_px", sev, seed=[seed, si]))[0]
        member, cosines = [], []
        for a, b, top5 in zip(clean1, corr1, clean5):
            member.append(float(b in top5))
            va, vb = slots[a], slots[b]
            na, nb = np.sqrt((va ** 2).sum()), np.sqrt((vb ** 2).sum())
            if a == b:
                cosines.append(1.0)
            else:
                cosines.append(float(va @ vb / (na * nb)) if na > 0 and nb > 0 else 0.0)
        out.append((100.0 * np.mean(member), np.mean(cosines)))
    return out


@pytest.mark.parametrize("branch", ["global", "local"])
def test_consistency_matches_per_image_reference(tiny_run, branch):
    cfg, model, test = tiny_run
    rows = consistency(model, test, family="occlusion_px", grid=[2, 4, 6], seed=11,
                       batch_size=REF_BATCH, branch=branch)
    want = reference_consistency(model, test, [0, 2, 4, 6], 11, branch)
    assert [r["top5_consistency_pct"] for r in rows] == [w[0] for w in want]
    assert rows[0]["mean_top1_cosine"] == 1.0
    np.testing.assert_allclose([r["mean_top1_cosine"] for r in rows],
                               [w[1] for w in want], rtol=0, atol=1e-6)


# -------------------------------------------------------------------- sweep

def test_sweep_rejects_unknown_axis(tmp_path):
    cfg = make_tiny_cfg(tmp_path)
    with pytest.raises(ValueError, match="axis"):
        sweep(cfg, "dropout", [0.1])


def test_sweep_runs_and_aggregates(tmp_path):
    cfg = make_tiny_cfg(tmp_path / "base", epochs=1, warmup_epochs=0,
                        synth_train_per_class=10, synth_test_per_class=5)
    out_root = str(tmp_path / "sweep")
    runs = sweep(cfg, "T", [0, 1], out_root=out_root, log=lambda *_: None)
    assert len(runs) == 2
    assert [r["value"] for r in runs] == [0, 1]
    assert os.path.isdir(os.path.join(out_root, "T=0_seed=0"))
    paths = write_sweep(runs, out_root)
    sweep_lines = Path(paths[0]).read_text().strip().split("\n")
    assert sweep_lines[0] == "axis,value,seed,final_test_acc,best_test_acc"
    assert len(sweep_lines) == 3
    summary_lines = Path(paths[1]).read_text().strip().split("\n")
    assert summary_lines[0] == "axis,value,n_seeds,mean_final,std_final,mean_best,std_best"
    assert os.path.exists(paths[2])
