"""Desk-shape benchmark for hmn: training, frozen eval and T=3 analysis.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Each run measures one workload in its own
process, so peak RSS is per workload; the eval and analyze workloads first
build their checkpoint in another process. With ``--trace 0`` the last
line of output reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones, as one JSON object with the keys correct, attempted,
failed and metrics. The line before it records the machine and the raw
samples. ``--smoke`` runs the same code at a toy shape. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("train_epoch", "eval_frozen", "analyze_t3")
NEEDS_CHECKPOINT = ("eval_frozen", "analyze_t3")
# OpenBLAS threads, capped at the cores this process may use
BLAS_THREADS = 2
# fresh processes that time the imports; the measuring process adds one more
IMPORT_PROBES = 4
# median time of worker.Calibration on the 2-core machine this benchmark was
# written on; time metrics are scaled to that machine speed
CAL_REF_S = 0.069
# every run must end within this many seconds
RUN_LIMIT_S = 170.0

UNITS = {"images_per_s": "img/s", "peak_rss_mb": "MiB", "setup_s": "s"}


def layer_unit(name):
    """Unit of a per-layer metric, read off its name."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_ms"):
        return "ms"
    if leaf.endswith("_share"):
        return "share"
    if leaf.endswith("_mb"):
        return "MiB"
    if leaf.endswith("_bytes"):
        return "bytes"
    if leaf.endswith("_per_s"):
        return "img/s"
    return "count"


def child(argv, env, deadline):
    """Run a worker to completion (killed at the deadline); its stdout."""
    try:
        proc = subprocess.run([sys.executable, WORKER] + argv, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker {argv[0]} exceeded the time limit") from None
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {argv[0]} exited with {proc.returncode}")
    return proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--smoke", action="store_true", help="toy shape, for tests")
    args = p.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "hmn", "__init__.py")):
        print("perfbench: src/hmn not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(BLAS_THREADS, nproc))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    tmp = os.path.join(TMP_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp]
    common += ["--smoke"] if args.smoke else []
    try:
        imports = []
        for _ in range(IMPORT_PROBES):
            out = child(["probe", "--t-spawn", repr(time.perf_counter())], env, deadline)
            imports.append(json.loads(out)["import_s"])
        build_s = 0.0
        if args.workload in NEEDS_CHECKPOINT:
            t = time.perf_counter()
            child(["build"] + common, env, deadline)
            build_s = time.perf_counter() - t
        out = child(["measure"] + common + ["--seconds", str(args.seconds),
                                            "--trace", str(args.trace),
                                            "--t-spawn", repr(time.perf_counter())], env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(TMP_ROOT) and not os.listdir(TMP_ROOT):
            os.rmdir(TMP_ROOT)
    res = json.loads(out.strip().splitlines()[-1])
    rates = [rate for rate, _ in res["passes"]]

    # set-up: the checkpoint build, then the median time from process start
    # to imports done, then the median in-process set-up (data, model or load)
    setup = {"build_s": build_s, "import_s": statistics.median(imports + [res["import_s"]]),
             "repeat_s": statistics.median(res["setup_reps_s"])}
    info = {"workload": args.workload, "seed": args.seed, "machine": res["machine"],
            "setup": setup, "pass_images_per_s": rates, "errors": res["errors"]}
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(res["per_layer"].items())}
    else:
        # scale each pass by the calibration time around it, and set-up by
        # the run's median, to the speed the machine has when it runs alone
        cals = [c for _, c in res["passes"]]
        info["calibration_s"] = cals
        slowdown = statistics.median(cals) / CAL_REF_S if cals else 1.0
        values = {"images_per_s": statistics.median(
                      r * c / CAL_REF_S for r, c in res["passes"]) if rates else 0.0,
                  "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": sum(setup.values()) / slowdown}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(json.dumps(info))
    print(json.dumps({"correct": res["failed"] == 0 and bool(rates),
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
