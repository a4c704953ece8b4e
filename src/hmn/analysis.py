"""Diagnostic protocols over trained checkpoints.

Hit rates: how often the highest-weighted retrieval slots share the query
image's class. Weight profiles: mean slot weighting for one class. The
corruption suite measures accuracy and retrieval stability under gaussian
noise, occlusion, and contrast changes. All analyses run eval forwards,
which never write the banks, so a live model and its saved checkpoint
give the same results. Each writes CSV plus SVG under an output
directory.

Every diagnostic runs over ``train.eval_batches``, the loop ``evaluate``
uses, keeps only the retrieval weight rows it ranks, and works on whole
batches: one stable ranking of each batch's rows, then array expressions
over it. An empty dataset raises ``ValueError``. ``corrupt`` takes a
whole batch too, and draws from one stream in image index order, as a
per-image loop would.
"""

import dataclasses
import os

import numpy as np

from . import data as data_mod
from . import svg
from .autodiff import ReadWeights
from .retrieval import retrieve_rows
from .train import _write_line, eval_batches, evaluate, train as run_train

# sweep axis -> RunConfig field; the field's annotation casts the values
_AXIS_FIELDS = {
    "T": "t_steps",
    "k": "k",
    "K_local": "k_local",
    "K_global": "k_global",
    "beta_init": "beta_init",
    "fraction": "fraction",
    "imbalance_ratio": "imbalance_ratio",
}

# identity severity per corruption family (a no-op corruption)
_IDENTITY = {"gaussian": 0.0, "occlusion": 0.0, "occlusion_px": 0.0, "contrast": 1.0}

DEFAULT_GRIDS = {
    "gaussian": [0.05, 0.10, 0.20, 0.30],
    "occlusion": [0.05, 0.10, 0.20],
    "contrast": [0.5, 0.75, 1.25, 1.5],
}
CONSISTENCY_GRID_PX = [4, 8, 12, 16, 20]
HIT_TOPK = (1, 5)


# ------------------------------------------------------------- corruptions

def corrupt(images, family, severity, rng):
    """Corrupted copy of an (n, C, H, W) batch in [0, 1] pixel space.

    The draws come off rng image by image in index order, as n one-image
    calls would take them. The identity severity, and an occlusion area
    that rounds to side 0, give a copy and draw nothing.
    """
    imgs = np.asarray(images, dtype=np.float64)
    n, _, h, w = imgs.shape
    if family not in _IDENTITY:
        raise ValueError(f"unknown corruption family {family!r}")
    if not np.isfinite(severity):
        raise ValueError(f"{family} severity must be finite, got {severity}")
    if family == "gaussian" and severity < 0:
        raise ValueError(f"gaussian sigma must be >= 0, got {severity}")
    if family == "contrast" and severity < 0:
        raise ValueError(f"contrast factor must be >= 0, got {severity}")
    side = None
    if family == "occlusion":
        if not 0.0 <= severity < 1.0:
            raise ValueError(f"occlusion area must be in [0, 1), got {severity}")
        side = min(int(round(np.sqrt(severity * h * w))), h, w)
    elif family == "occlusion_px":
        side = int(severity)
        if side != severity:
            raise ValueError(f"occlusion side must be a whole number, got {severity}")
        if side < 0 or side > min(h, w):
            raise ValueError(f"occlusion side must be in [0, {min(h, w)}], got {severity}")
    if severity == _IDENTITY[family] or side == 0:
        return imgs.copy()
    if family == "gaussian":
        return np.clip(imgs + rng.normal(0.0, severity, size=imgs.shape), 0.0, 1.0)
    if family == "contrast":
        mean = imgs.mean(axis=(2, 3), keepdims=True)
        return np.clip(mean + severity * (imgs - mean), 0.0, 1.0)
    # each image's (top, left) corner, then its side × side square in every channel
    top, left = rng.integers(0, [h - side + 1, w - side + 1], size=(n, 2)).T[..., None, None]
    ys, xs = np.ogrid[:h, :w]
    hide = (ys >= top) & (ys < top + side) & (xs >= left) & (xs < left + side)
    return np.where(hide[:, None], 0.0, imgs)


def corrupt_dataset(dataset, family, severity, seed):
    """Deterministic corrupted copy; one rng stream, image index order."""
    images = corrupt(dataset.images, family, severity, np.random.default_rng(seed))
    return data_mod.Dataset(images, dataset.labels.copy(), dataset.num_classes,
                            dataset.name)


# ------------------------------------------------------------ capture plumbing

def _last_bank(model, branch):
    """The last block's bank for branch, once it holds at least one slot."""
    if branch not in ("local", "global"):
        raise ValueError(f"branch must be local or global, got {branch!r}")
    last = model.blocks[-1]
    bank = last.bank_local if branch == "local" else last.bank_global
    if not bank.any_filled:
        raise ValueError(f"last-block {branch} bank is empty")
    return bank


def _rank_slots(alpha):
    """Slot ids by descending weight along the last axis.

    The sort is stable, so ties go to the lower slot index."""
    return np.argsort(-alpha, axis=-1, kind="stable")


def _sample_rows(model, dataset, branch, batch_size, all_tokens=False):
    """Yield (labels (n,), alpha (n, t, K)) per eval batch: last-block
    retrieval weight rows for branch, kept tile by tile through capture.

    The global branch has t=1. The local branch gives the token picked by
    the pooling weights (argmax), t=1, or every token with all_tokens,
    t=N; of a tile's read only the picked rows are kept
    (``ReadWeights.pick``) once its pooling weights arrive. Alpha is
    formed once per batch, from the kept reads. Where refinement read no
    bank (T=0, β=0), one plain read of the block's queries stands in. An
    empty bank raises ValueError.
    """
    bank, last = _last_bank(model, branch), model.blocks[-1]
    pooled = branch == "local" and not all_tokens
    rows, held = [], []

    def keep(owner, name, q, weights):
        if owner is last and name == branch:
            read = retrieve_rows(q, bank)[0] if weights is None else weights
            (held if pooled else rows).append(read)
        elif name == "pool" and pooled:
            rows.append(held.pop().pick(weights.value.argmax(axis=1)))

    for labels, _ in eval_batches(model, dataset, batch_size, capture=keep):
        yield labels, ReadWeights.stack(rows).value
        rows.clear()


# ----------------------------------------------------------------- hit rate

def hit_rate(model, dataset, branch="global", all_tokens=False, batch_size=64):
    """Fraction of samples whose top-1 and top-5 weighted slots share the sample class.

    The local branch scores the token picked by the pooling weights
    (argmax), or averages over every token with all_tokens. Chance
    baselines: 1/C for top-1; 1 − (1 − 1/C)^k for top-k is an
    independent-draw approximation, reported as indicative only.
    """
    _, slot_class, _ = _last_bank(model, branch).filled_view()
    hits = {k: 0.0 for k in HIT_TOPK}
    for labels, alpha in _sample_rows(model, dataset, branch, batch_size, all_tokens):
        same = slot_class[_rank_slots(alpha)[..., :max(HIT_TOPK)]] == labels[:, None, None]
        for k in HIT_TOPK:
            # per image: the share of its rows with a same-class slot in the top k
            hits[k] += float(same[..., :k].any(axis=-1).mean(axis=1).sum())
    c = model.cfg.num_classes
    report = {"branch": branch, "n": len(dataset), "all_tokens": bool(all_tokens) and branch == "local"}
    for k in HIT_TOPK:
        report[f"top{k}_pct"] = 100.0 * hits[k] / len(dataset)
        report[f"chance_top{k}_pct"] = 100.0 * (1.0 - (1.0 - 1.0 / c) ** k)
    return report


def _write_csv(path, fields, rows):
    """Header line, then one line per row: a dict keyed by the fields or a
    sequence of values in field order. Floats print as repr(float(v)),
    every other value as str(v)."""
    lines = [",".join(fields)]
    for row in rows:
        values = [row[f] for f in fields] if isinstance(row, dict) else row
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in values))
    _write_line(path, "\n".join(lines), mode="w")


def write_hit_rate_csv(report, path):
    branch = report["branch"]
    rows = [(branch, key, report[key]) for key in sorted(report) if key.endswith("_pct")]
    _write_csv(path, ["branch", "metric", "value"], rows + [(branch, "n", report["n"])])


# ------------------------------------------------------------ weight profile

def weight_profile(model, dataset, class_id, branch="global", batch_size=64):
    """Mean last-block slot weighting over all inputs of one class.

    Slot ids are contiguous per class, so the profile is grouped by
    slot_class along the x axis already.
    """
    bank = _last_bank(model, branch)
    idx = np.flatnonzero(dataset.labels == int(class_id))
    if len(idx) == 0:
        raise ValueError(f"no samples of class {int(class_id)} in the dataset")
    subset = dataset.subset(idx)
    _, slot_class, _ = bank.filled_view()
    acc = np.zeros(bank.total_slots)
    for _, alpha in _sample_rows(model, subset, branch, batch_size):
        acc += alpha[:, 0].sum(axis=0, dtype=np.float64)
    return acc / len(subset), slot_class


def write_weight_profile(profile, slot_class, class_id, out_dir, branch):
    csv_path = os.path.join(out_dir, f"weights_{branch}_class{class_id}.csv")
    _write_csv(csv_path, ["slot_id", "slot_class", "mean_alpha"],
               zip(range(len(profile)), slot_class, profile))
    svg_path = os.path.join(out_dir, f"weights_{branch}_class{class_id}.svg")
    svg.render_svg([(list(range(len(profile))), list(profile))],
                   [f"class {class_id}"], svg_path,
                   title=f"Mean slot weight, {branch} branch, class {class_id}",
                   xlabel="slot id (grouped by class)", ylabel="mean weight")
    return csv_path, svg_path


# ------------------------------------------------------------- robustness

def _checked_grid(family, grid, images):
    """(identity severity, grid with the identity severity first if absent).

    grid None is consistency's default: DEFAULT_GRIDS[family], for
    occlusion_px the CONSISTENCY_GRID_PX sides that fit the images. An
    unknown family, or a severity ``corrupt`` rejects at the images' size,
    raises ValueError; each severity is tried on an empty batch, which
    draws nothing."""
    if family not in _IDENTITY:
        raise ValueError(f"unknown corruption family {family!r}; valid: {sorted(_IDENTITY)}")
    if grid is None:
        fit = [side for side in CONSISTENCY_GRID_PX if side <= min(images.shape[2:])]
        grid = DEFAULT_GRIDS.get(family, fit)
    for sev in grid:
        corrupt(images[:0], family, sev, np.random.default_rng(0))
    ident = _IDENTITY[family]
    grid = list(grid)
    return ident, grid if ident in grid else [ident] + grid


def robustness(models, dataset, grids=None, seed=1234, batch_size=64):
    """Accuracy per (model, family, severity); rows at the identity severity
    equal clean accuracy exactly. Returns a list of row dicts; grids with
    no corrupted severity to average raise ValueError."""
    grids = [(family, *_checked_grid(family, sevs, dataset.images))
             for family, sevs in sorted((grids or DEFAULT_GRIDS).items())]
    if all(sev == ident for _, ident, grid in grids for sev in grid):
        raise ValueError("robustness needs a corrupted severity; every grid is the identity")
    rows = []
    for label, model in models:
        clean_acc = evaluate(model, dataset, batch_size)
        corrupted_accs = []
        for fi, (family, ident, grid) in enumerate(grids):
            for si, sev in enumerate(grid):
                if sev == ident:
                    acc = clean_acc
                else:
                    cds = corrupt_dataset(dataset, family, sev, seed=[seed, fi, si])
                    acc = evaluate(model, cds, batch_size)
                    corrupted_accs.append(acc)
                rows.append({"model": label, "t_steps": model.cfg.t_steps,
                             "family": family, "severity": sev, "accuracy": acc,
                             "n": len(dataset)})
        rows.append({"model": label, "t_steps": model.cfg.t_steps, "family": "all",
                     "severity": "mean", "accuracy": float(np.mean(corrupted_accs)),
                     "n": len(dataset)})
    return rows


def write_robustness(rows, out_dir):
    csv_path = os.path.join(out_dir, "robustness.csv")
    _write_csv(csv_path, ["model", "t_steps", "family", "severity", "accuracy", "n"], rows)
    paths = [csv_path]
    families = sorted({r["family"] for r in rows if r["family"] != "all"})
    models = list(dict.fromkeys(r["model"] for r in rows))
    for family in families:
        series, labels = [], []
        for m in models:
            pts = [(float(r["severity"]), r["accuracy"]) for r in rows
                   if r["model"] == m and r["family"] == family]
            pts.sort()
            series.append(([p[0] for p in pts], [p[1] for p in pts]))
            labels.append(str(m))
        path = os.path.join(out_dir, f"robustness_{family}.svg")
        svg.render_svg(series, labels, path, title=f"Accuracy under {family}",
                       xlabel="severity", ylabel="top-1 accuracy")
        paths.append(path)
    return paths


# ------------------------------------------------------------- consistency

def consistency(model, dataset, family="occlusion_px", grid=None, seed=4321,
                batch_size=64, branch="global"):
    """Retrieval stability under corruption at the last block's bank.

    Per severity: does the corrupted top-1 slot sit in the clean top-5 set,
    and how close (cosine) is the corrupted top-1 prototype to the clean
    one. The same slot counts as cosine exactly 1; a zero slot as 0.
    """
    slots = _last_bank(model, branch).slots.astype(np.float64)
    ident, grid = _checked_grid(family, grid, dataset.images)

    def top5(ds):
        # the local branch scores the argmax-pooling token, as hit_rate does
        return np.concatenate([_rank_slots(alpha[:, 0])[:, :5] for _, alpha
                               in _sample_rows(model, ds, branch, batch_size)])

    clean5 = top5(dataset)
    clean1 = clean5[:, 0]
    va = slots[clean1]
    rows = []
    for si, sev in enumerate(grid):
        if sev == ident:
            corr1 = clean1
        else:
            corr1 = top5(corrupt_dataset(dataset, family, sev, seed=[seed, si]))[:, 0]
        member = (clean5 == corr1[:, None]).any(axis=1)
        vb = slots[corr1]
        norms = np.linalg.norm(va, axis=1) * np.linalg.norm(vb, axis=1)
        cos = np.divide((va * vb).sum(axis=1), norms, out=np.zeros(len(norms)),
                        where=norms > 0)
        cos[clean1 == corr1] = 1.0
        rows.append({"branch": branch, "family": family, "severity": sev,
                     "top5_consistency_pct": float(100.0 * member.mean()),
                     "mean_top1_cosine": float(cos.mean()), "n": len(clean1)})
    return rows


def write_consistency(rows, out_dir):
    csv_path = os.path.join(out_dir, "consistency.csv")
    _write_csv(csv_path, ["branch", "family", "severity", "top5_consistency_pct",
                          "mean_top1_cosine", "n"], rows)
    xs = [float(r["severity"]) for r in rows]
    p1 = os.path.join(out_dir, "consistency_top5.svg")
    svg.render_svg([(xs, [r["top5_consistency_pct"] for r in rows])], ["top-5 consistency"],
                   p1, title="Top-5 retrieval consistency", xlabel="severity",
                   ylabel="consistency (%)")
    p2 = os.path.join(out_dir, "consistency_cosine.svg")
    svg.render_svg([(xs, [r["mean_top1_cosine"] for r in rows])], ["top-1 cosine"],
                   p2, title="Prototype cosine similarity", xlabel="severity",
                   ylabel="mean cosine")
    return [csv_path, p1, p2]


# ------------------------------------------------------------------- sweep

def sweep(base_cfg, axis, values, seeds=None, out_root=None, log=print):
    """Train once per (value, seed) with the harness unchanged; aggregate.

    A single value with the base seed reproduces a direct train run
    bit-for-bit (the canonical config snapshot excludes output paths).
    """
    if axis not in _AXIS_FIELDS:
        raise ValueError(f"axis must be one of {sorted(_AXIS_FIELDS)}, got {axis!r}")
    field = _AXIS_FIELDS[axis]
    cast = next(f.type for f in dataclasses.fields(base_cfg) if f.name == field)
    seeds = list(seeds) if seeds else [base_cfg.seed]
    out_root = out_root or os.path.join(base_cfg.out_dir, f"sweep_{axis}")
    runs = []
    for value in values:
        v = cast(value)
        for seed in seeds:
            cfg = dataclasses.replace(base_cfg, **{field: v}, seed=int(seed),
                                      out_dir=os.path.join(out_root, f"{axis}={v}_seed={seed}"))
            log(f"sweep {axis}={v} seed={seed}")
            summary = run_train(cfg, log=lambda *_: None)
            runs.append({"axis": axis, "value": v, "seed": int(seed),
                         "final_test_acc": summary["final_test_acc"],
                         "best_test_acc": summary["best_test_acc"],
                         "out_dir": cfg.out_dir})
    return runs


def write_sweep(runs, out_root):
    os.makedirs(out_root, exist_ok=True)
    csv_path = os.path.join(out_root, "sweep.csv")
    _write_csv(csv_path, ["axis", "value", "seed", "final_test_acc", "best_test_acc"], runs)
    values = list(dict.fromkeys(r["value"] for r in runs))
    sum_path = os.path.join(out_root, "summary.csv")
    summary, means = [], []
    for v in values:
        finals = [r["final_test_acc"] for r in runs if r["value"] == v]
        bests = [r["best_test_acc"] for r in runs if r["value"] == v]
        summary.append((runs[0]["axis"], v, len(finals), np.mean(finals), np.std(finals),
                        np.mean(bests), np.std(bests)))
        means.append(float(np.mean(finals)))
    _write_csv(sum_path, ["axis", "value", "n_seeds", "mean_final", "std_final",
                          "mean_best", "std_best"], summary)
    svg_path = os.path.join(out_root, "sweep.svg")
    svg.render_svg([([float(v) for v in values], means)], ["mean final accuracy"],
                   svg_path, title=f"Sweep over {runs[0]['axis']}",
                   xlabel=runs[0]["axis"], ylabel="test accuracy")
    return [csv_path, sum_path, svg_path]
