"""Diagnostic protocols over trained checkpoints.

Hit rates: how often the highest-weighted retrieval slots share the query
image's class. Weight profiles: mean slot weighting for one class. The
corruption suite measures accuracy and retrieval stability under gaussian
noise, occlusion, and contrast changes. All analyses read frozen banks and
write CSV plus SVG under an output directory.
"""

import dataclasses
import os

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import svg
from .train import train as run_train

_AXIS_FIELDS = {
    "T": ("t_steps", int),
    "k": ("k", int),
    "K_local": ("k_local", int),
    "K_global": ("k_global", int),
    "beta_init": ("beta_init", float),
    "fraction": ("fraction", float),
    "imbalance_ratio": ("imbalance_ratio", float),
}

# identity severity per corruption family (a no-op corruption)
_IDENTITY = {"gaussian": 0.0, "occlusion": 0.0, "occlusion_px": 0.0, "contrast": 1.0}

DEFAULT_GRIDS = {
    "gaussian": [0.05, 0.10, 0.20, 0.30],
    "occlusion": [0.05, 0.10, 0.20],
    "contrast": [0.5, 0.75, 1.25, 1.5],
}
CONSISTENCY_GRID_PX = [4, 8, 12, 16, 20]


# ------------------------------------------------------------- corruptions

def corrupt(image, family, severity, rng):
    """One corrupted copy of a (C, H, W) image in [0, 1] pixel space."""
    img = np.asarray(image, dtype=np.float64)
    c, h, w = img.shape
    if family == "gaussian":
        if severity < 0:
            raise ValueError(f"gaussian sigma must be >= 0, got {severity}")
        if severity == 0:
            return img.copy()
        return np.clip(img + rng.normal(0.0, severity, size=img.shape), 0.0, 1.0)
    if family in ("occlusion", "occlusion_px"):
        if family == "occlusion":
            if not 0.0 <= severity < 1.0:
                raise ValueError(f"occlusion area must be in [0, 1), got {severity}")
            side = int(round(np.sqrt(severity * h * w)))
        else:
            side = int(severity)
            if side < 0 or side > min(h, w):
                raise ValueError(f"occlusion side must be in [0, {min(h, w)}], got {severity}")
        if side == 0:
            return img.copy()
        side = min(side, min(h, w))
        top = int(rng.integers(0, h - side + 1))
        left = int(rng.integers(0, w - side + 1))
        out = img.copy()
        out[:, top:top + side, left:left + side] = 0.0
        return out
    if family == "contrast":
        if severity < 0:
            raise ValueError(f"contrast factor must be >= 0, got {severity}")
        if severity == 1.0:
            return img.copy()
        mean = img.mean(axis=(1, 2), keepdims=True)
        return np.clip(mean + severity * (img - mean), 0.0, 1.0)
    raise ValueError(f"unknown corruption family {family!r}")


def corrupt_dataset(dataset, family, severity, seed):
    """Deterministic corrupted copy; one rng stream, image index order."""
    rng = np.random.default_rng(seed)
    images = np.stack([corrupt(img, family, severity, rng) for img in dataset.images])
    return data_mod.Dataset(images, dataset.labels.copy(), dataset.num_classes,
                            dataset.name)


# ------------------------------------------------------------ capture plumbing

def _require_frozen_filled(model, branch=None):
    for name, bank in model.banks().items():
        if not bank.frozen:
            raise ValueError(f"bank {name} is not frozen; analyze a saved checkpoint")
    last = model.blocks[-1]
    banks = {"local": last.bank_local, "global": last.bank_global}
    for bname, bank in banks.items():
        if branch in (None, bname) and not bank.any_filled:
            raise ValueError(f"last-block {bname} bank is empty")


def _captured_batches(model, dataset, batch_size=64):
    """Yield (labels, capture, logits) per eval batch with last-block weights.

    The forwards record no autodiff graph; the scope closes before each
    yield, so the caller's own code runs outside it.
    """
    cfg = model.cfg
    for start in range(0, len(dataset), batch_size):
        sl = slice(start, min(start + batch_size, len(dataset)))
        x = data_mod.standardize(dataset.images[sl], cfg.norm_mean, cfg.norm_std)
        capture = {}
        with ad.no_grad():
            logits = model.forward(x, mode="eval", capture=capture)
        yield dataset.labels[sl], capture, logits.value


def _rank_slots(alpha_row):
    # stable sort: ties go to the lower slot index
    return np.argsort(-alpha_row, kind="stable")


# ----------------------------------------------------------------- hit rate

def hit_rate(model, dataset, branch="global", topk=(1, 5), all_tokens=False,
             batch_size=64):
    """Fraction of samples whose top-weighted slots share the sample class.

    The local branch scores the token picked by the pooling weights
    (argmax), or averages over every token with all_tokens. Chance
    baselines: 1/C for top-1; 1 − (1 − 1/C)^k for top-k is an
    independent-draw approximation, reported as indicative only.
    """
    if branch not in ("local", "global"):
        raise ValueError(f"branch must be local or global, got {branch!r}")
    _require_frozen_filled(model, branch)
    last = model.blocks[-1]
    bank = last.bank_local if branch == "local" else last.bank_global
    _, slot_class, _ = bank.filled_view()
    n_tok = model.cfg.n_tokens
    hits = {k: 0.0 for k in topk}
    total = 0
    for labels, cap, _ in _captured_batches(model, dataset, batch_size):
        key = f"{branch}_alpha"
        alpha = cap[key]
        if alpha is None:
            raise ValueError(f"last-block {branch} bank is empty")
        for i, label in enumerate(labels):
            if branch == "global":
                rows = [alpha[i]]
            elif all_tokens:
                rows = [alpha[i * n_tok + t] for t in range(n_tok)]
            else:
                t_star = int(np.argmax(cap["pool_weights"][i]))
                rows = [alpha[i * n_tok + t_star]]
            for k in topk:
                hit = 0.0
                for row in rows:
                    order = _rank_slots(row)[:k]
                    hit += float(label in slot_class[order])
                hits[k] += hit / len(rows)
            total += 1
    c = model.cfg.num_classes
    report = {"branch": branch, "n": total, "all_tokens": bool(all_tokens)}
    for k in topk:
        report[f"top{k}_pct"] = 100.0 * hits[k] / max(total, 1)
        report[f"chance_top{k}_pct"] = 100.0 * (1.0 - (1.0 - 1.0 / c) ** k)
    return report


def write_hit_rate_csv(report, path):
    rows = ["branch,metric,value"]
    for key in sorted(report):
        if key.endswith("_pct"):
            rows.append(f"{report['branch']},{key},{repr(report[key])}")
    rows.append(f"{report['branch']},n,{report['n']}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


# ------------------------------------------------------------ weight profile

def weight_profile(model, dataset, class_id, branch="global", batch_size=64):
    """Mean last-block slot weighting over all inputs of one class.

    Slot ids are contiguous per class, so the profile is grouped by
    slot_class along the x axis already.
    """
    _require_frozen_filled(model, branch)
    class_id = int(class_id)
    idx = np.flatnonzero(dataset.labels == class_id)
    if len(idx) == 0:
        raise ValueError(f"no samples of class {class_id} in the dataset")
    subset = dataset.subset(idx)
    last = model.blocks[-1]
    bank = last.bank_local if branch == "local" else last.bank_global
    _, slot_class, _ = bank.filled_view()
    n_tok = model.cfg.n_tokens
    acc = np.zeros(bank.total_slots)
    total = 0
    for labels, cap, _ in _captured_batches(model, subset, batch_size):
        alpha = cap[f"{branch}_alpha"]
        for i in range(len(labels)):
            if branch == "global":
                acc += alpha[i]
            else:
                t_star = int(np.argmax(cap["pool_weights"][i]))
                acc += alpha[i * n_tok + t_star]
            total += 1
    return acc / total, slot_class


def write_weight_profile(profile, slot_class, class_id, out_dir, branch):
    csv_path = os.path.join(out_dir, f"weights_{branch}_class{class_id}.csv")
    rows = ["slot_id,slot_class,mean_alpha"]
    for i, (sc, val) in enumerate(zip(slot_class, profile)):
        rows.append(f"{i},{int(sc)},{repr(float(val))}")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    svg_path = os.path.join(out_dir, f"weights_{branch}_class{class_id}.svg")
    svg.render_svg([(list(range(len(profile))), list(profile))],
                   [f"class {class_id}"], svg_path,
                   title=f"Mean slot weight, {branch} branch, class {class_id}",
                   xlabel="slot id (grouped by class)", ylabel="mean weight")
    return csv_path, svg_path


# ------------------------------------------------------------- robustness

def robustness(models, dataset, grids=None, seed=1234, batch_size=64):
    """Accuracy per (model, family, severity); rows at the identity severity
    equal clean accuracy exactly. Returns a list of row dicts."""
    from .train import evaluate
    grids = grids or DEFAULT_GRIDS
    rows = []
    for label, model in models:
        clean_acc = evaluate(model, dataset, batch_size)
        corrupted_accs = []
        for fi, (family, sevs) in enumerate(sorted(grids.items())):
            grid = list(sevs)
            ident = _IDENTITY[family]
            if ident not in grid:
                grid = [ident] + grid
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
    lines = ["model,t_steps,family,severity,accuracy,n"]
    for r in rows:
        lines.append(f"{r['model']},{r['t_steps']},{r['family']},{r['severity']},"
                     f"{repr(float(r['accuracy']))},{r['n']}")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    paths = [csv_path]
    families = sorted({r["family"] for r in rows if r["family"] != "all"})
    models = []
    for r in rows:
        if r["model"] not in models:
            models.append(r["model"])
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

def _top1_and_top5(model, dataset, branch, batch_size):
    """Per sample: (top1 slot id, top5 slot id set) at the last block.

    The local branch scores the argmax-pooling token, mirroring hit_rate."""
    n_tok = model.cfg.n_tokens
    top1 = np.empty(len(dataset), dtype=np.int64)
    top5 = []
    pos = 0
    for labels, cap, _ in _captured_batches(model, dataset, batch_size):
        alpha = cap[f"{branch}_alpha"]
        if alpha is None:
            raise ValueError(f"last-block {branch} bank is empty")
        for i in range(len(labels)):
            if branch == "global":
                row = alpha[i]
            else:
                t_star = int(np.argmax(cap["pool_weights"][i]))
                row = alpha[i * n_tok + t_star]
            order = _rank_slots(row)
            top1[pos] = order[0]
            top5.append(set(int(s) for s in order[:5]))
            pos += 1
    return top1, top5


def consistency(model, dataset, family="occlusion_px", grid=None, seed=4321,
                batch_size=64, branch="global"):
    """Retrieval stability under corruption at the last block's bank.

    Per severity: does the corrupted top-1 slot sit in the clean top-5 set,
    and how close (cosine) is the corrupted top-1 prototype to the clean
    one. Identical slots count as cosine exactly 1.
    """
    if branch not in ("local", "global"):
        raise ValueError(f"branch must be local or global, got {branch!r}")
    _require_frozen_filled(model, branch)
    grid = list(CONSISTENCY_GRID_PX if grid is None else grid)
    ident = _IDENTITY[family]
    if ident not in grid:
        grid = [ident] + grid
    last = model.blocks[-1]
    slots = (last.bank_local if branch == "local" else last.bank_global).slots
    clean1, clean5 = _top1_and_top5(model, dataset, branch, batch_size)
    rows = []
    for si, sev in enumerate(grid):
        if sev == ident:
            corr1 = clean1
        else:
            cds = corrupt_dataset(dataset, family, sev, seed=[seed, si])
            corr1, _ = _top1_and_top5(model, cds, branch, batch_size)
        member = np.fromiter((int(corr1[i]) in clean5[i] for i in range(len(clean1))),
                             dtype=np.float64)
        cosines = np.empty(len(clean1))
        for i in range(len(clean1)):
            a, b = clean1[i], corr1[i]
            if a == b:
                cosines[i] = 1.0
            else:
                va, vb = slots[a], slots[b]
                na, nb = np.sqrt((va ** 2).sum()), np.sqrt((vb ** 2).sum())
                cosines[i] = float(va @ vb / (na * nb)) if na > 0 and nb > 0 else 0.0
        rows.append({"branch": branch, "family": family, "severity": sev,
                     "top5_consistency_pct": float(100.0 * member.mean()),
                     "mean_top1_cosine": float(cosines.mean()), "n": len(clean1)})
    return rows


def write_consistency(rows, out_dir):
    csv_path = os.path.join(out_dir, "consistency.csv")
    lines = ["branch,family,severity,top5_consistency_pct,mean_top1_cosine,n"]
    for r in rows:
        lines.append(f"{r['branch']},{r['family']},{r['severity']},"
                     f"{repr(r['top5_consistency_pct'])},{repr(r['mean_top1_cosine'])},{r['n']}")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
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
    field, cast = _AXIS_FIELDS[axis]
    seeds = list(seeds) if seeds else [base_cfg.seed]
    out_root = out_root or os.path.join(base_cfg.out_dir, f"sweep_{axis}")
    runs = []
    for value in values:
        v = cast(value)
        for seed in seeds:
            cfg = dataclasses.replace(base_cfg, **{field: v}, seed=int(seed),
                                      out_dir=os.path.join(out_root, f"{axis}={v}_seed={seed}"))
            cfg.validate()
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
    lines = ["axis,value,seed,final_test_acc,best_test_acc"]
    for r in runs:
        lines.append(f"{r['axis']},{r['value']},{r['seed']},"
                     f"{repr(r['final_test_acc'])},{repr(r['best_test_acc'])}")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    values = []
    for r in runs:
        if r["value"] not in values:
            values.append(r["value"])
    sum_path = os.path.join(out_root, "summary.csv")
    lines = ["axis,value,n_seeds,mean_final,std_final,mean_best,std_best"]
    means = []
    for v in values:
        finals = [r["final_test_acc"] for r in runs if r["value"] == v]
        bests = [r["best_test_acc"] for r in runs if r["value"] == v]
        lines.append(f"{runs[0]['axis']},{v},{len(finals)},{repr(float(np.mean(finals)))},"
                     f"{repr(float(np.std(finals)))},{repr(float(np.mean(bests)))},"
                     f"{repr(float(np.std(bests)))}")
        means.append(float(np.mean(finals)))
    with open(sum_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    svg_path = os.path.join(out_root, "sweep.svg")
    svg.render_svg([([float(v) for v in values], means)], ["mean final accuracy"],
                   svg_path, title=f"Sweep over {runs[0]['axis']}",
                   xlabel=runs[0]["axis"], ylabel="test accuracy")
    return [csv_path, sum_path, svg_path]
