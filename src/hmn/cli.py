"""Command-line surface.

Every command exits 0 on success and prints a one-line JSON error record
to stderr with a nonzero exit code otherwise.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import analysis
from .config import load_config
from .data import load_dataset
from .gradcheck import model_gradcheck
from .model import Model, load_checkpoint
from .retrieval import variance_probe
from .train import evaluate, train as run_train


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _load_eval_data(model, data_dir):
    cfg = dataclasses.replace(model.cfg, data_dir=data_dir or model.cfg.data_dir)
    return load_dataset(cfg)[1]


def cmd_train(args):
    cfg = load_config(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    summary = run_train(cfg)
    _emit(summary)
    return 0


def cmd_eval(args):
    model, extra, _ = load_checkpoint(args.ckpt)
    test = _load_eval_data(model, args.data)
    acc = evaluate(model, test, args.batch_size)
    _emit({"test_acc": acc, "n": len(test), "checkpoint": args.ckpt,
           "checkpoint_extra": extra})
    return 0


def cmd_gradcheck(args):
    results = {}
    for t in (int(v) for v in args.t.split(",")):
        results[f"T={t}"] = model_gradcheck(t_steps=t, seed=args.seed)
    ok = all(v < args.tol for v in results.values())
    _emit({"max_rel_err": results, "tolerance": args.tol, "pass": ok})
    return 0 if ok else 1


def cmd_params(args):
    cfg = load_config(args.config)
    model = Model(cfg)
    counts = model.param_counts()
    counts["config"] = os.path.basename(args.config)
    _emit(counts)
    return 0


def cmd_probe_variance(args):
    raw, scaled = variance_probe(args.dim, args.n, seed=args.seed)
    _emit({"dim": args.dim, "n": args.n, "raw_var": raw, "scaled_var": scaled,
           "expected_raw": 1.0 / args.dim})
    return 0


def cmd_sweep(args):
    cfg = load_config(args.config)
    values = args.values.split(",")
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
    out_root = args.out or os.path.join(cfg.out_dir, f"sweep_{args.axis}")
    runs = analysis.sweep(cfg, args.axis, values, seeds=seeds, out_root=out_root)
    paths = analysis.write_sweep(runs, out_root)
    _emit({"runs": len(runs), "outputs": paths})
    return 0


def cmd_analyze(args):
    """Run one analysis and only then make --out and write its files, so a
    failing step leaves no directory behind."""
    if args.what != "robustness" and len(args.ckpt) > 1:
        raise ValueError(f"{args.what} reads one --ckpt, got {len(args.ckpt)}; "
                         "only robustness compares several")
    branch = args.branch or ("both" if args.what == "hit-rate" else "global")
    if branch == "both" and args.what in ("weights", "consistency"):
        raise ValueError(f"{args.what} reads one --branch, local or global")
    unknown = [f for f in args.families.split(",") if f not in analysis.DEFAULT_GRIDS]
    if args.what == "robustness" and unknown:
        raise ValueError(f"unknown --families {unknown}; valid: {sorted(analysis.DEFAULT_GRIDS)}")
    model, _, _ = load_checkpoint(args.ckpt[0])
    test = _load_eval_data(model, args.data)
    if args.what == "hit-rate":
        reports = [analysis.hit_rate(model, test, branch=one, all_tokens=args.all_tokens,
                                     batch_size=args.batch_size)
                   for one in (["local", "global"] if branch == "both" else [branch])]

        def save():
            paths = [os.path.join(args.out, f"hit_rate_{rep['branch']}.csv") for rep in reports]
            for rep, path in zip(reports, paths):
                analysis.write_hit_rate_csv(rep, path)
                _emit(rep)
            return paths
    elif args.what == "weights":
        profile, slot_class = analysis.weight_profile(
            model, test, args.class_id, branch=branch, batch_size=args.batch_size)
        save = functools.partial(analysis.write_weight_profile, profile, slot_class,
                                 args.class_id, args.out, branch)
    elif args.what == "robustness":
        models = [model] + [load_checkpoint(path)[0] for path in args.ckpt[1:]]
        labels = [f"T={m.cfg.t_steps}" for m in models]
        if len(set(labels)) < len(labels):  # equal T: add the 1-based --ckpt position
            labels = [f"{label} #{i}" for i, label in enumerate(labels, 1)]
        grids = {f: analysis.DEFAULT_GRIDS[f] for f in args.families.split(",")}
        rows = analysis.robustness(list(zip(labels, models)), test, grids=grids,
                                   seed=args.seed, batch_size=args.batch_size)
        save = functools.partial(analysis.write_robustness, rows, args.out)
    else:
        grid = [float(v) for v in args.grid.split(",")] if args.grid else None
        rows = analysis.consistency(model, test, family=args.family, grid=grid,
                                    seed=args.seed, batch_size=args.batch_size,
                                    branch=branch)
        save = functools.partial(analysis.write_consistency, rows, args.out)
    os.makedirs(args.out, exist_ok=True)
    _emit({"outputs": list(save())})
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="hmn",
                                description="memory-network classifier tools")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", default=None, help="override the config out_dir")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="test accuracy of a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", default=None, help="dataset directory")
    e.add_argument("--batch-size", type=int, default=64)
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    g.add_argument("--t", default="1,2", help="comma list of refinement depths")
    g.add_argument("--tol", type=float, default=1e-4)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gradcheck)

    pa = sub.add_parser("params", help="parameter counts for a config")
    pa.add_argument("--config", required=True)
    pa.set_defaults(func=cmd_params)

    pv = sub.add_parser("probe-variance", help="dot-product variance vs dimension")
    pv.add_argument("--dim", type=int, required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_probe_variance)

    sw = sub.add_parser("sweep", help="train across one config axis")
    sw.add_argument("--config", required=True)
    sw.add_argument("--axis", required=True,
                    choices=sorted(analysis._AXIS_FIELDS))
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--seeds", default=None, help="comma-separated seeds")
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=cmd_sweep)

    an = sub.add_parser("analyze", help="diagnostics over a trained checkpoint")
    an.add_argument("what", choices=["hit-rate", "weights", "robustness", "consistency"])
    an.add_argument("--ckpt", action="append", required=True,
                    help="checkpoint path (repeat for robustness T comparison)")
    an.add_argument("--data", default=None, help="dataset directory")
    an.add_argument("--out", required=True, help="output directory for CSV/SVG")
    an.add_argument("--batch-size", type=int, default=64)
    an.add_argument("--branch", default=None, choices=["local", "global", "both"],
                    help="branch to analyze (hit-rate: default both; weights and "
                         "consistency: default global, one branch only)")
    an.add_argument("--all-tokens", action="store_true",
                    help="average local hit rate over every token")
    an.add_argument("--class-id", type=int, default=0, help="class for weights")
    an.add_argument("--families", default="gaussian,occlusion,contrast",
                    help="robustness families")
    an.add_argument("--family", default="occlusion_px", help="consistency family")
    an.add_argument("--grid", default=None, help="consistency severity grid")
    an.add_argument("--seed", type=int, default=1234, help="corruption seed")
    an.set_defaults(func=cmd_analyze)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as e:  # one-line machine-readable failure
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
