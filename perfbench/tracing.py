"""Span tracing for the benchmark's traced run, installed from outside hmn.

The tracer replaces module and class attributes of the hmn layers with
timing wrappers and restores them on ``uninstall``. It patches every
binding of a function, not only the defining module's, because modules
such as ``hmn.blocks`` and ``hmn.train`` bind names like ``refine_rows`` and
``save_checkpoint`` at import. An autodiff op's backward is timed by
wrapping the ``_backward`` closure on the node the op returns.

Spans are kept in memory as ``[name, start, end, parent, batch, attrs]``
and written out when the run ends. A batch is one train step (from the
first augmentation draw to the optimizer step) or one model forward
outside a train step (an eval or hit-rate batch). ``summarize`` turns the
spans of one timed phase into the per-layer metrics.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
import types

import numpy as np

LAYERS = ("train", "data", "model", "blocks", "retrieval", "memory",
          "kernels", "autodiff", "optim", "analysis")

# every op the model calls; each gets a fwd_ms and a bwd_ms metric
OPS = ("matmul", "softmax_rows", "gelu", "unfold_tokens", "scalar_mul",
       "layernorm_rows", "l2_normalize_rows", "add_bias", "add", "sub", "scale",
       "concat_last_axis", "mean_rows", "repeat_rows_each", "tile_rows",
       "group_weighted_sum", "reshape", "cross_entropy")

# private methods that bound a model stage or an analysis step
_PRIVATE = {"HMNBlock": ("_local_branch", "_global_branch", "_capture_alpha"),
            "analysis": ("_rank_slots",)}

_MIB = float(1 << 20)


def graph_bytes(root):
    """Bytes of op-output values reachable from ``root`` through the graph.

    Views share a buffer, so each underlying buffer is counted once.
    """
    seen, buffers, total = set(), set(), 0
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if not t._parents:
            continue
        base = t.value
        while isinstance(base.base, np.ndarray):
            base = base.base
        if id(base) not in buffers:
            buffers.add(id(base))
            total += base.nbytes
        stack.extend(t._parents)
    return total


class Tracer:
    def __init__(self):
        self.spans = []
        self.batches = []  # per batch: kind, start, graph bytes at batch end
        self._stack = []
        self._batch = None
        self._batch_depth = 0
        self._step = None
        self._patches = []

    # ------------------------------------------------------------ spans

    def _open(self, name):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._batch, None])
        self._stack.append(i)
        return i

    def _close(self, i):
        now = time.perf_counter()
        # pops spans an exception left open above i as well
        while self._stack:
            j = self._stack.pop()
            self.spans[j][2] = now
            if j == i:
                break
        if self._batch is not None and len(self._stack) < self._batch_depth:
            self._batch = None

    def _start_batch(self, kind, depth):
        self._batch = len(self.batches)
        self._batch_depth = depth
        self.batches.append({"kind": kind, "start": time.perf_counter(), "graph_bytes": 0})

    # ------------------------------------------------------------ hooks

    def _maybe_open_step(self, args, kwargs):
        if self._step is not None:
            return
        names = {self.spans[j][0] for j in self._stack}
        if "train.train" in names and "train.evaluate" not in names:
            self._start_batch("step", len(self._stack) + 1)
            self._step = self._open("train.step")

    def _close_step(self, i, args, kwargs, out):
        if self._step is not None:
            step, self._step = self._step, None
            self._close(step)

    def _before_forward(self, args, kwargs):
        if self._step is None:
            self._start_batch("forward", len(self._stack))

    def _after_forward(self, i, args, kwargs, out):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
        self.spans[i][5] = {"mode": mode}
        if self._step is None and self._batch is not None:
            self.batches[self._batch]["graph_bytes"] = graph_bytes(out)

    def _after_backward(self, i, args, kwargs, out):
        if self._batch is not None:
            self.batches[self._batch]["graph_bytes"] = graph_bytes(args[0])

    def _after_op(self, name):
        def hook(i, args, kwargs, out):
            if out._backward is None:
                return
            self.spans[i][5] = {"node": 1}
            bwd = out._backward

            def timed_backward(dout):
                j = self._open(name + ".bwd")
                try:
                    bwd(dout)
                finally:
                    self._close(j)

            out._backward = timed_backward
        return hook

    def _after_retrieve(self, i, args, kwargs, out):
        alpha = out[0]
        if alpha is not None:  # an empty bank is not read
            self.spans[i][5] = {"cells": int(alpha.value.size)}

    def _after_filled_view(self, i, args, kwargs, out):
        self.spans[i][5] = {"full": bool(out[2].all())}

    def _after_unfold(self, i, args, kwargs, out):
        self.spans[i][5] = {"bytes": int(np.asarray(args[0]).nbytes + out.nbytes)}

    def _after_ckpt(self, i, args, kwargs, out):
        path = args[1] if self.spans[i][0].endswith("save_checkpoint") else args[0]
        self.spans[i][5] = {"bytes": os.path.getsize(path)}

    def _hooks(self, name):
        """(before, after) for a span name; most spans need neither."""
        if name in ("data.augment", "data.standardize"):
            return self._maybe_open_step, None
        if name == "optim.Adam.step":
            return None, self._close_step
        if name == "model.Model.forward":
            return self._before_forward, self._after_forward
        if name == "autodiff.backward":
            return None, self._after_backward
        if name.startswith("autodiff.") and name[len("autodiff."):] in OPS:
            return None, self._after_op(name)
        if name == "retrieval.retrieve_rows":
            return None, self._after_retrieve
        if name == "memory.MemoryBank.filled_view":
            return None, self._after_filled_view
        if name.startswith("kernels.unfold_grid"):
            return None, self._after_unfold
        if name in ("model.save_checkpoint", "model.load_checkpoint"):
            return None, self._after_ckpt
        return None, None

    # ------------------------------------------------------------ patching

    def _wrap(self, owner, attr, orig, name):
        before, after = self._hooks(name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = self._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(i, args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def install(self):
        """Wrap the public functions and methods of every hmn layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hmn" or n.startswith("hmn."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"hmn.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and _traceable(attr, obj, layer):
                    name = f"{layer}.{attr}"
                    # every module that bound this function at import
                    for other in modules:
                        for oattr, oval in list(vars(other).items()):
                            if oval is obj:
                                self._wrap(other, oattr, obj, name)
                elif isinstance(obj, type) and not attr.startswith("_"):
                    for mattr, meth in list(vars(obj).items()):
                        if isinstance(meth, types.FunctionType) and _traceable(mattr, meth, obj.__name__):
                            self._wrap(obj, mattr, meth, f"{layer}.{obj.__name__}.{mattr}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "batch", "attrs"],
                       "spans": self.spans, "batches": self.batches}, fh,
                      separators=(",", ":"))


def _traceable(attr, fn, owner):
    if inspect.isgeneratorfunction(fn):
        return False  # a span would close before the generator runs
    return not attr.startswith("_") or attr in _PRIVATE.get(owner, ())


# ---------------------------------------------------------------- metrics

def _layer(name):
    return name.split(".", 1)[0]


def summarize(tracer, t0, t1, batch_kind):
    """Per-layer metrics over spans that start inside [t0, t1].

    Per-batch values are totals over the phase's batches of ``batch_kind``
    divided by their count. Per-call values (checkpoint IO, data loading,
    eval passes, forwards) divide by the number of calls instead.
    """
    spans = tracer.spans
    in_phase = [i for i, s in enumerate(spans) if t0 <= s[1] <= t1]
    batches = {b for b, rec in enumerate(tracer.batches)
               if rec["kind"] == batch_kind and t0 <= rec["start"] <= t1}
    n = max(len(batches), 1)
    children = {}
    for i in in_phase:
        children.setdefault(spans[i][3], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def kids(i, name):
        return [j for j in children.get(i, ()) if spans[j][0] == name]

    total, calls, attr_sum = {}, {}, {}
    for i in in_phase:
        name, _, _, _, batch, attrs = spans[i]
        if batch not in batches:
            continue
        total[name] = total.get(name, 0.0) + dur(i)
        calls[name] = calls.get(name, 0) + 1
        for key, val in (attrs or {}).items():
            if not isinstance(val, str):
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + val

    def per_batch_ms(name):
        return 1e3 * total.get(name, 0.0) / n

    def per_call_ms(name, pred=lambda i: True, everywhere=False):
        pool = range(len(spans)) if everywhere else in_phase
        ds = [dur(i) for i in pool if spans[i][0] == name and pred(i)]
        return 1e3 * sum(ds) / len(ds) if ds else 0.0

    def mode_is(mode):
        return lambda i: (spans[i][5] or {}).get("mode") == mode

    m = {}
    m["train.step_ms"] = per_batch_ms("train.step")
    m["train.eval_ms"] = per_call_ms("train.evaluate")
    m["train.ckpt_save_ms"] = per_call_ms("model.save_checkpoint")
    m["data.augment_ms"] = per_batch_ms("data.augment")
    m["data.augment_calls"] = calls.get("data.augment", 0) / n
    m["data.load_ms"] = per_call_ms("data.load_dataset", everywhere=True)
    m["model.forward_train_ms"] = per_call_ms("model.Model.forward", mode_is("train"))
    m["model.forward_eval_ms"] = per_call_ms("model.Model.forward", mode_is("eval"))
    m["model.ckpt_load_ms"] = per_call_ms("model.load_checkpoint", everywhere=True)
    ckpt = [s[5]["bytes"] for s in spans
            if s[0] in ("model.save_checkpoint", "model.load_checkpoint") and s[5]]
    m["model.ckpt_bytes"] = ckpt[-1] if ckpt else 0

    # stages tile each batch's forward; what no stage covers is the residual
    stage = dict.fromkeys(("patch_embed", "local_unfold_proj", "local_retrieval",
                           "global_branch", "mlp", "pool_head", "bank_write"), 0.0)
    forward_s = capture_s = 0.0
    for i in in_phase:
        if spans[i][0] != "model.Model.forward" or spans[i][4] not in batches:
            continue
        blocks = kids(i, "blocks.HMNBlock.forward")
        if not blocks:
            continue
        forward_s += dur(i)
        stage["patch_embed"] += spans[blocks[0]][1] - spans[i][1]
        stage["pool_head"] += spans[i][2] - spans[blocks[-1]][2]
        for b in blocks:
            local = kids(b, "blocks.HMNBlock._local_branch")[0]
            glob = kids(b, "blocks.HMNBlock._global_branch")[0]
            refine = sum(dur(j) for j in kids(local, "retrieval.refine_rows"))
            cap_l = sum(dur(j) for j in kids(local, "blocks.HMNBlock._capture_alpha"))
            cap_g = sum(dur(j) for j in kids(glob, "blocks.HMNBlock._capture_alpha"))
            writes = sum(dur(j) for j in kids(b, "memory.MemoryBank.write"))
            stage["local_retrieval"] += refine
            stage["local_unfold_proj"] += dur(local) - refine - cap_l
            stage["global_branch"] += dur(glob) - cap_g
            stage["bank_write"] += writes
            stage["mlp"] += dur(b) - dur(local) - dur(glob) - writes
            capture_s += cap_l + cap_g
    for key, val in stage.items():
        m[f"stage.{key}_ms"] = 1e3 * val / n
    residual = forward_s - sum(stage.values()) - capture_s
    m["stage.residual_ms"] = 1e3 * residual / n
    m["stage.residual_share"] = residual / forward_s if forward_s else 0.0

    for op in OPS:
        m[f"autodiff.{op}.fwd_ms"] = per_batch_ms(f"autodiff.{op}")
        m[f"autodiff.{op}.bwd_ms"] = per_batch_ms(f"autodiff.{op}.bwd")
    m["autodiff.backward_ms"] = per_batch_ms("autodiff.backward")
    m["autodiff.nodes"] = sum(attr_sum.get((f"autodiff.{op}", "node"), 0) for op in OPS) / n
    m["autodiff.retained_mb"] = sum(tracer.batches[b]["graph_bytes"] for b in batches) / n / _MIB

    refine_by = {"local": 0.0, "global": 0.0}
    for i in in_phase:
        if spans[i][0] == "retrieval.refine_rows" and spans[i][4] in batches:
            parent = spans[spans[i][3]][0] if spans[i][3] >= 0 else ""
            for branch in refine_by:
                if parent == f"blocks.HMNBlock._{branch}_branch":
                    refine_by[branch] += dur(i)
    m["retrieval.refine_local_ms"] = 1e3 * refine_by["local"] / n
    m["retrieval.refine_global_ms"] = 1e3 * refine_by["global"] / n
    m["retrieval.retrieve_calls"] = calls.get("retrieval.retrieve_rows", 0) / n
    m["retrieval.scored_cells"] = attr_sum.get(("retrieval.retrieve_rows", "cells"), 0) / n
    m["retrieval.capture_ms"] = 1e3 * capture_s / n

    m["memory.write_calls"] = calls.get("memory.MemoryBank.write", 0) / n
    m["memory.write_ms"] = per_batch_ms("memory.MemoryBank.write")
    m["memory.filled_view_calls"] = calls.get("memory.MemoryBank.filled_view", 0) / n
    m["memory.filled_view_ms"] = per_batch_ms("memory.MemoryBank.filled_view")
    retrievals = [i for i in in_phase
                  if spans[i][0] == "retrieval.retrieve_rows" and spans[i][4] in batches]
    full = sum(1 for i in retrievals
               if any(spans[j][5]["full"] for j in kids(i, "memory.MemoryBank.filled_view")))
    m["memory.mask_full_share"] = full / len(retrievals) if retrievals else 0.0

    m["kernels.unfold_calls"] = calls.get("kernels.unfold_grid", 0) / n
    m["kernels.unfold_fwd_ms"] = per_batch_ms("kernels.unfold_grid")
    m["kernels.unfold_bwd_ms"] = per_batch_ms("kernels.unfold_grid_bwd")
    m["kernels.unfold_bytes"] = (attr_sum.get(("kernels.unfold_grid", "bytes"), 0)
                                 + attr_sum.get(("kernels.unfold_grid_bwd", "bytes"), 0)) / n
    m["optim.step_ms"] = per_call_ms("optim.Adam.step")
    hit = [i for i in in_phase if spans[i][0] == "analysis.hit_rate"]
    m["analysis.hit_rate_ms"] = 1e3 * sum(dur(i) for i in hit) / n if hit else 0.0
    m["analysis.rank_ms"] = per_batch_ms("analysis._rank_slots")

    # self time: a span's duration less the part its child spans cover
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in in_phase:
        own = dur(i) - sum(dur(j) for j in children.get(i, ()))
        self_s[_layer(spans[i][0])] += own
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * self_s[layer] / n
    m["trace.spans"] = len(in_phase) / n
    return m
