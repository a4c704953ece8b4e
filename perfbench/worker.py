"""One benchmark process: build a desk checkpoint, or measure one workload.

    python3 perfbench/worker.py build   --workload W --seed N --tmp DIR [--smoke]
    python3 perfbench/worker.py measure --workload W --seed N --tmp DIR
                                        --seconds S --trace 0|1 --t-spawn T [--smoke]
    python3 perfbench/worker.py probe --t-spawn T

``run.py`` starts it with the BLAS thread count pinned in its environment,
which numpy reads at import. ``measure`` prints one JSON object as its last
line of output. The program sees only the generated config and data.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from hmn import analysis  # noqa: E402
from hmn import autodiff as ad  # noqa: E402
from hmn import data as data_mod  # noqa: E402
from hmn import model as model_mod  # noqa: E402
from hmn import optim  # noqa: E402
from hmn import train as train_mod  # noqa: E402
from hmn.config import RunConfig  # noqa: E402

IMPORTED = time.perf_counter()

# aim-1 desk shape, and a toy shape (the synth_smoke dimensions) for tests
DESK = {"image_size": [28, 28], "synth_classes": 10, "d_emb": 64, "d_lat": 64,
        "n_blocks": 4, "k": 3, "k_local": 500, "k_global": 200, "write_sample": 4,
        "batch_size": 128}
SMOKE = {"image_size": [16, 16], "synth_classes": 2, "d_emb": 32, "d_lat": 24,
         "n_blocks": 2, "k": 3, "k_local": 64, "k_global": 32, "write_sample": 2,
         "batch_size": 32}
CKPT = "desk.ckpt"
SETUP_REPS = 5
# train steps that fill every bank of the eval and analyze checkpoints
BUILD_STEPS = 2
# calibration samples taken between passes
CAL_SAMPLES = 3


def make_config(workload, seed, smoke, out_dir):
    shape = SMOKE if smoke else DESK
    b, c = shape["batch_size"], shape["synth_classes"]
    if workload == "train_epoch":
        # three steps, the last a little short; a tiny in-loop test split
        train_pc, test_pc = (3 * b - 4) // c, 2
    else:
        train_pc = -(-BUILD_STEPS * b // c)
        test_pc = 5 * b // c if workload == "eval_frozen" else -(-b // c)
    return RunConfig(dataset="synth_blobs", synth_train_per_class=train_pc,
                     synth_test_per_class=test_pc, augment=True, epochs=1,
                     warmup_epochs=0, t_steps=3 if workload == "analyze_t3" else 1,
                     seed=seed, out_dir=out_dir, **shape).resolve()


def interleaved(labels):
    """Indices that cycle through the classes, so every batch is balanced."""
    rank = np.empty(len(labels), dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rank[idx] = np.arange(len(idx))
    return np.lexsort((labels, rank))


def standardized(cfg, images):
    return data_mod.standardize(images, cfg.norm_mean, cfg.norm_std)


def build_checkpoint(cfg, path):
    """Train BUILD_STEPS balanced batches at T=1, then save with full banks.

    The T=3 checkpoint is trained at T=1 too: a T=3 train step at desk
    shape needs about 6 GB, and no workload trains at T=3.
    """
    train_ds, _ = train_mod.prepare_datasets(cfg)
    rng = np.random.default_rng(cfg.seed)
    model = model_mod.Model(cfg, rng)
    params = model.parameters()
    opt = optim.Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    order = interleaved(train_ds.labels)
    b = cfg.batch_size
    for step in range(BUILD_STEPS):
        idx = order[step * b:(step + 1) * b]
        labels = train_ds.labels[idx]
        logits = model.forward(standardized(cfg, train_ds.images[idx]), mode="train",
                               labels=labels, rng=rng, t_override=1)
        loss = ad.cross_entropy(logits, labels)
        ad.zero_grad(params.values())
        ad.backward(loss)
        opt.step()
    for name, bank in model.banks().items():
        if not np.array_equal(bank.filled, bank.per_class_capacity):
            raise RuntimeError(f"bank {name} not full after {BUILD_STEPS} steps")
    model.set_frozen(True)
    model_mod.save_checkpoint(model, path)


class Ops:
    """Attempted and failed operation counts; a raise counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, check):
        """fn() then check(result) -> problem or None; returns the result or None."""
        self.attempted += 1
        try:
            out = fn()
            problem = check(out)
        except Exception as e:  # a failing operation is counted, not fatal
            out, problem = None, f"{type(e).__name__}: {e}"
        if problem:
            self.failed += 1
            self.errors.append(problem)
            return None
        return out


class TrainEpoch:
    """One epoch of train() from empty banks; a pass is one train() call."""
    batch_kind = "step"

    def setup(self, cfg, ckpt):
        train_ds, _ = train_mod.prepare_datasets(cfg)
        model_mod.Model(cfg)  # the model build train() does before its first step
        return {"cfg": cfg, "images": len(train_ds) * cfg.epochs}

    def warmup(self, st, ops):
        self.run(st, ops)

    def run(self, st, ops):
        cfg = st["cfg"]

        def check(summary):
            loss = summary["train_loss"]
            if not math.isfinite(loss):
                return f"epoch train loss {loss!r} is not finite"
            # reruns of one config must write byte-identical files
            digest = hashlib.sha256()
            for name in ("metrics.csv", "final.ckpt"):
                with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                    digest.update(fh.read())
            first = st.setdefault("digest", digest.hexdigest())
            return None if digest.hexdigest() == first else "rerun wrote different files"

        ok = ops.run(lambda: train_mod.train(cfg, log=lambda *_: None), check)
        return st["images"] if ok else 0


class EvalFrozen:
    """evaluate() over a held-out set with frozen, full banks."""
    batch_kind = "forward"

    def setup(self, cfg, ckpt):
        _, test = data_mod.load_dataset(cfg)
        model, _, _ = model_mod.load_checkpoint(ckpt)
        return {"cfg": cfg, "model": model, "test": test}

    def warmup(self, st, ops):
        # batch independence at desk shape: half a batch, reversed, among
        # other images must give the logits it gave in its first batch
        cfg, model = st["cfg"], st["model"]
        b, h = cfg.batch_size, cfg.batch_size // 2
        x = standardized(cfg, st["test"].images[:b + h])
        whole = model.forward(x[:b], mode="eval").value

        def mixed():
            return model.forward(np.concatenate([x[b:b + h], x[:h][::-1]]), mode="eval").value

        ops.run(mixed, lambda out: None if np.array_equal(out[h:][::-1], whole[:h])
                else "logits depend on batch composition")
        self.run(st, ops)

    def run(self, st, ops):
        def check(acc):
            first = st.setdefault("accuracy", acc)
            return None if acc == first else f"accuracy {acc!r} != first pass {first!r}"

        acc = ops.run(lambda: train_mod.evaluate(st["model"], st["test"],
                                                 batch_size=st["cfg"].batch_size), check)
        return len(st["test"]) if acc is not None else 0


class AnalyzeT3:
    """hit_rate for the local and global branches of a T=3 checkpoint."""
    batch_kind = "forward"

    def setup(self, cfg, ckpt):
        _, test = data_mod.load_dataset(cfg)
        model, _, _ = model_mod.load_checkpoint(ckpt)
        held = test.subset(interleaved(test.labels)[:cfg.batch_size])
        return {"cfg": cfg, "model": model, "held": held, "batch": cfg.batch_size // 2}

    def warmup(self, st, ops):
        self.run(st, ops)

    def run(self, st, ops):
        held, images = st["held"], 0
        for branch in ("local", "global"):
            def check(r, branch=branch):
                if r["n"] != len(held):
                    return f"{branch} report n={r['n']} != {len(held)}"
                if not 0.0 <= r["top1_pct"] <= r["top5_pct"] <= 100.0:
                    return f"{branch} report breaks 0 <= top1 <= top5 <= 100"
                text = json.dumps(r, sort_keys=True)
                first = st.setdefault(branch, text)
                return None if text == first else f"{branch} report differs across repeats"

            report = ops.run(lambda: analysis.hit_rate(st["model"], held, branch=branch,
                                                       batch_size=st["batch"]), check)
            images += len(held) if report else 0
        return images


WORKLOADS = {"train_epoch": TrainEpoch, "eval_frozen": EvalFrozen, "analyze_t3": AnalyzeT3}


class Calibration:
    """A fixed numpy mix like the model's hot ops (GEMM, masked-softmax-style
    row ops, gelu) at desk size, independent of hmn.

    The benchmark shares its machine, whose speed drifts by tens of percent
    over minutes. The kernel's time drifts with it, so run.py divides that
    drift out of the time metrics.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.q = rng.standard_normal((6272, 64))  # B=128 images x 49 tokens
        self.w = rng.standard_normal((64, 500)) / 8.0

    def sample(self):
        t = time.perf_counter()
        z = self.q @ self.w
        e = np.exp(z - z.max(axis=1, keepdims=True))
        m = (e / e.sum(axis=1, keepdims=True)) @ self.w.T
        float((0.5 * m * (1.0 + np.tanh(0.7978845608 * (m + 0.044715 * m ** 3)))).sum())
        return time.perf_counter() - t


def timed(workload, st, ops, seconds, cal):
    """Closed loop: one pass after another until seconds have passed.

    Returns, for each pass that completed without failure, its images per
    second and the median calibration time of the samples around it.
    """
    passes = []
    before = [cal.sample() for _ in range(CAL_SAMPLES)]
    end = time.perf_counter() + seconds
    while True:
        t = time.perf_counter()
        images = workload.run(st, ops)
        elapsed = time.perf_counter() - t
        after = [cal.sample() for _ in range(CAL_SAMPLES)]
        if images:
            passes.append((images / elapsed, float(np.median(before + after))))
        before = after
        if time.perf_counter() >= end:
            return passes


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "numpy": np.__version__,
            "numba_imported": "numba" in sys.modules}


def measure(args, import_s):
    workload = WORKLOADS[args.workload]()
    cfg = make_config(args.workload, args.seed, args.smoke, os.path.join(args.tmp, "train"))
    ckpt = os.path.join(args.tmp, CKPT)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    reps, st = [], None
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        st = workload.setup(cfg, ckpt)
        reps.append(time.perf_counter() - t)
    if tracer:
        tracer.uninstall()
    ops = Ops()
    workload.warmup(st, ops)
    cal = Calibration()
    out = {"import_s": import_s, "setup_reps_s": reps, "machine": machine()}
    if tracer:
        # untraced and traced passes alternate, so drift reaches both alike
        phase = {False: [], True: []}
        t0 = time.perf_counter()
        end = t0 + args.seconds
        on = ran_traced = False
        while time.perf_counter() < end or not ran_traced:
            if on:
                tracer.install()
            phase[on] += timed(workload, st, ops, 0.0, cal)  # one pass
            if on:
                tracer.uninstall()
            ran_traced |= on
            on = not on
        t1 = time.perf_counter()
        untraced, traced = phase[False], phase[True]
        layers = tracing.summarize(tracer, t0, t1, workload.batch_kind)
        layers["trace.images_per_s"] = _median_rate(traced)
        layers["trace.untraced_images_per_s"] = _median_rate(untraced)
        layers["trace.overhead_share"] = (1.0 - _median_rate(traced) / _median_rate(untraced)
                                          if traced and untraced else 0.0)
        tracer.write(os.path.join(ROOT, ".perfbench_out",
                                  f"trace-{args.workload}-seed{args.seed}.json"))
        out["per_layer"] = layers
        passes = untraced + traced
    else:
        passes = timed(workload, st, ops, args.seconds, cal)
    out.update(passes=passes, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               attempted=ops.attempted, failed=ops.failed, errors=ops.errors[:10])
    print(json.dumps(out))


def _median_rate(passes):
    return float(np.median([rate for rate, _ in passes])) if passes else 0.0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("action", choices=["probe", "build", "measure"])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tmp", help="scratch directory inside the checkout")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--t-spawn", type=float, help="parent's perf_counter() at spawn")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.action == "probe":
        # the imports above are what a fresh process pays before any work
        print(json.dumps({"import_s": IMPORTED - args.t_spawn}))
    elif args.action == "build":
        cfg = make_config(args.workload, args.seed, args.smoke, args.tmp)
        build_checkpoint(cfg, os.path.join(args.tmp, CKPT))
    else:
        measure(args, IMPORTED - args.t_spawn)


if __name__ == "__main__":
    main()
