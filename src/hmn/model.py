"""Full classifier: patch embedding, block stack, attention pooling, head.

Activations keep one leading axis per image: (B, N, D) tokens through the
blocks, (B, N) pooling weights, a (B, 1, D) pooled vector and (B, C)
logits. The forward GEMMs run in fixed 16-image tiles (see autodiff), so
an image's logits do not depend on the rest of the batch. ``forward`` and
the chunked train step (``train.train_step``) share one private forward,
``_forward``, which only reads the banks; a train step's reads queue its
writes through the capture ``_writer`` returns. An eval ``forward``
records no autodiff graph and runs ``_forward`` over consecutive
``_CHUNK``-image chunks, the train step's chunks, so its working memory
is one chunk's whatever the batch size, also under ``capture``, which
sees each tile's reads. A chunk is a whole number of tiles, so every
GEMM call and every output bit is the whole batch's. Where it can, a
chunk runs its two tiles as concurrent lanes (``autodiff.lanes``), one
``_forward`` each, with every GEMM on one BLAS thread. Under a capture,
lane 0 calls it as it reads and lane 1 holds its events, which the
calling thread hands to the capture after the join; so a capture runs in
the calling thread only and sees each read once per tile, in image order,
at every thread count.

A model computes in one dtype: float32 unless built with another (the
finite-difference checks build float64). Parameters, β, bank slots,
inputs, activations and gradients all hold it.

Also the versioned binary checkpoint format: saving writes the records
``_records`` lists, and loading reads them back against that list for a
model of the stored config. Parameters and slots are stored as
little-endian float32, write counts as int64. Loading takes the records as
they are, so a float32 model's save→load round trip is exact, and a
checkpoint saved again after loading is byte-identical in the same
process setting. The metadata records the saving process's BLAS thread
setting, ``blas_threads``, the OpenBLAS kernel family that ran,
``blas_kernel``, and the numpy version, ``numpy``. The thread count does
not change the bits where ``_blas`` can pin GEMMs to one thread; the
kernel family and numpy's random streams may; a resave elsewhere
records that process's values instead.
"""

import functools
import json
import os
import struct
from collections import OrderedDict

import numpy as np

from . import _blas
from . import autodiff as ad
from .blocks import HMNBlock
from .config import config_from_dict
from .memory import BANK_STATE_FIELDS
from .optim import Adam

MAGIC = b"HMN1"
VERSION = 2

# images per chunk of an eval forward or a train step: two of the forward
# GEMMs' 16-image tiles, so a chunk's tiles are the whole batch's. Each
# tile is a lane, one _forward call
_CHUNK = 2 * ad._TILE


def _chunks(n):
    """The lanes of n images, chunk by chunk: each _CHUNK-image chunk as
    the slices of its 16-image tiles."""
    return [[slice(j, min(j + ad._TILE, n)) for j in range(i, min(i + _CHUNK, n), ad._TILE)]
            for i in range(0, n, _CHUNK)]


class Model:
    def __init__(self, cfg, rng=None, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        # parameter draws come off this one stream in declaration order, so
        # a seed pins every weight
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        p, c_in, d_e = cfg.patch_size, cfg.in_channels, cfg.d_emb
        fan = p * p * c_in
        self.patch_proj = self._param(rng.normal(0.0, 1.0 / np.sqrt(fan), size=(fan, d_e)))
        self.patch_bias = self._param(np.zeros(d_e))
        self.pos_embed = self._param(rng.normal(0.0, 0.02, size=(cfg.n_tokens, d_e)))
        self.blocks = [HMNBlock(cfg, rng, self.dtype) for _ in range(cfg.n_blocks)]
        self.W_att = self._param(rng.normal(0.0, 1.0 / np.sqrt(d_e), size=(d_e, 1)))
        # zero head makes the initial loss exactly ln(num_classes)
        self.head_w = self._param(np.zeros((d_e, cfg.num_classes)))
        self.head_b = self._param(np.zeros(cfg.num_classes))

    def _param(self, value):
        return ad.Tensor(value.astype(self.dtype), requires_grad=True)

    def parameters(self):
        out = OrderedDict()
        out["patch_proj"] = self.patch_proj
        out["patch_bias"] = self.patch_bias
        out["pos_embed"] = self.pos_embed
        for i, blk in enumerate(self.blocks):
            out.update(blk.parameters(f"block{i}"))
        out["W_att"] = self.W_att
        out["head_w"] = self.head_w
        out["head_b"] = self.head_b
        return out

    def banks(self):
        out = OrderedDict()
        for i, blk in enumerate(self.blocks):
            out[f"block{i}.local"] = blk.bank_local
            out[f"block{i}.global"] = blk.bank_global
        return out

    def set_frozen(self, flag):
        """No-op, kept because perfbench's worker calls it.

        Banks have no mode to set: eval forwards never write them and
        train forwards do.
        """

    def param_counts(self):
        learnable = sum(t.value.size for t in self.parameters().values())
        slots = sum(b.slots.size for b in self.banks().values())
        return {"learnable": int(learnable), "bank_slots": int(slots),
                "total": int(learnable + slots)}

    def _patchify(self, images):
        """(B, C, H, W) -> (B, N, P²·C); each patch flattened (C, P, P) row-major."""
        b, c, h, w = images.shape
        p = self.cfg.patch_size
        hp, wp = h // p, w // p
        x = images.reshape(b, c, hp, p, wp, p).transpose(0, 2, 4, 1, 3, 5)
        return np.ascontiguousarray(x).reshape(b, hp * wp, c * p * p)

    def forward(self, images, mode="eval", labels=None, rng=None,
                t_override=None, capture=None):
        """(B, C) logits for a standardized (B, C, H, W) image batch.

        eval mode only reads the banks, records no graph and changes no
        model state; it runs in consecutive _CHUNK-image chunks and
        concatenates their logits. A chunk's 16-image tiles run as two
        concurrent lanes, one ``_forward`` each, where ``autodiff.lanes``
        allows; otherwise one ``_forward`` runs the chunk. Both give the
        same bits. capture, a callable, sees each tile's reads, tile by
        tile in image order, and is called in the calling thread only:
        every block calls capture(block, branch, q, weights)
        (``HMNBlock._refine``). Then comes the one event that is no read,
        told apart by name alone: capture(model, "pool", None, pool), pool
        the plain Tensor of the tile's (b, N) pooling weights. A captured
        chunk runs tile by tile even where its lanes cannot run
        concurrently, so capture sees the same events at every BLAS thread
        count (``_eval_chunk``). train mode runs the whole batch at once, at
        the process's BLAS setting, and writes the rows ``_writer`` picks
        under labels, drawing write tokens from rng; one missing either, or
        given a capture, raises before any bank changes.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be train or eval, got {mode!r}")
        if mode == "train" and labels is None:
            raise ValueError("train mode needs one label per image for bank writes")
        if mode == "train" and rng is None:
            raise ValueError("train mode needs an rng for write-token sampling")
        if mode == "train" and capture is not None:
            raise ValueError("train mode takes no capture: its reads queue the bank writes")
        images = self._images(images)
        t_steps = self.cfg.t_steps if t_override is None else int(t_override)
        if mode == "eval":
            with ad.no_grad(), ad.lanes() as lanes:
                return ad.Tensor(np.concatenate([
                    logits for tiles in _chunks(len(images))
                    for logits in self._eval_chunk(images, tiles, t_steps, capture, lanes)]))
        writes = []
        logits = self._forward(images, t_steps,
                               self._writer(self._write_tokens(len(images), rng), labels, writes))
        for bank, rows, cls in writes:
            bank.slots = bank.slots.copy()  # this graph's reads keep their slots
            bank.write(rows, cls)
        return logits

    def _eval_chunk(self, images, tiles, t_steps, capture, lanes):
        """The logits of one chunk, whose lanes are tiles, as a list of
        arrays in image order. Lane 0 calls capture as it reads; lane 1
        holds its events, and the calling thread hands them to capture
        after the join, in order. So capture sees each read once per tile,
        in image order and in the calling thread only, whether the lanes
        ran concurrently or not, and neither lane waits for the other."""
        if capture is None and not lanes.concurrent:
            # one call for the chunk: the same bits as one per tile, since
            # an image's rows never see the rest of the batch, in half the
            # op calls. A captured chunk runs per tile even where its lanes
            # run one after another, so that capture sees the same events
            # at every BLAS thread count
            whole = slice(tiles[0].start, tiles[-1].stop)
            return [self._forward(images[whole], t_steps).value]
        held = []
        captures = (capture, None if capture is None else lambda *event: held.append(event))
        logits = lanes.run([functools.partial(self._forward, images[tile], t_steps, cap)
                            for tile, cap in zip(tiles, captures)])
        for event in held:
            capture(*event)
        return [lg.value for lg in logits]

    def _images(self, images):
        """images as a (B, C, H, W) array of the model's dtype, B ≥ 1; any
        other shape raises ValueError."""
        images = np.asarray(images, dtype=self.dtype)
        if images.ndim != 4 or len(images) == 0:
            raise ValueError(f"expected a nonempty (B, C, H, W) batch, got shape {images.shape}")
        if images.shape[1:] != (self.cfg.in_channels, *self.cfg.image_size):
            raise ValueError(f"input shape {images.shape[1:]} does not match config")
        return images

    def _write_tokens(self, b, rng):
        """(n_blocks, B, write_sample) sorted indices of the local-query rows
        a train step writes for b images, drawn block by block, then image
        by image, as the determinism contract fixes the rng stream."""
        n, s = self.cfg.n_tokens, self.cfg.write_sample
        return np.array([[np.sort(rng.choice(n, size=s, replace=False)) for _ in range(b)]
                         for _ in self.blocks])

    def _writer(self, picks, labels, writes):
        """The capture callable that queues each read's pending bank write
        on writes as (bank, rows, class ids), unwritten. picks holds the
        blocks' write tokens (``_write_tokens``) and labels the classes of
        the images read. A local read queues a copy of each image's picked
        queries q[i, picks[i]], in image order, a global read each image's
        query; the "pool" event queues nothing."""
        def capture(block, branch, q, weights):
            if branch == "local":
                p = picks[self.blocks.index(block)]
                rows = q.value[np.arange(len(p))[:, None], p]
                writes.append((block.bank_local, rows.reshape(-1, rows.shape[-1]),
                               np.repeat(labels, p.shape[1])))
            elif branch == "global":
                writes.append((block.bank_global, q.value[:, 0], labels))
        return capture

    def _forward(self, images, t_steps, capture=None):
        """Logits for a standardized (B, C, H, W) batch, reading the banks
        only; capture, ``forward``'s or a ``_writer``, goes to every block."""
        patches = self._patchify(images)
        b = images.shape[0]
        # tokens are (B, N, D): every matmul below runs in 16-image tiles of
        # fixed height, so an image's rows never see the rest of the batch
        tok = ad.matmul(ad.Tensor(patches), self.patch_proj, self.patch_bias)
        tok = ad.add(tok, self.pos_embed)
        for blk in self.blocks:
            tok = blk.forward(tok, t_steps, capture)
        scores = ad.reshape(ad.matmul(tok, self.W_att), (b, self.cfg.n_tokens))
        pool = ad.softmax_rows(scores)
        v = ad.group_weighted_sum(pool, tok)
        logits = ad.reshape(ad.matmul(v, self.head_w, self.head_b), (b, -1))
        if capture is not None:
            capture(self, "pool", None, pool)
        return logits


# ------------------------------------------------------------- checkpoint IO

_DTYPES = {0: "<f4", 1: "<i8"}
_CODES = {dt: code for code, dt in _DTYPES.items()}


def _storage_dtype(arr):
    return "<f4" if arr.dtype.kind == "f" else "<i8"


def _records(model, optimizer=None):
    """(name, array) of each record of model's checkpoint, in file order:
    parameters, each bank's state, then any optimizer state."""
    records = [(name, t.value) for name, t in model.parameters().items()]
    records += [(f"bank.{bname}.{field}", arr) for bname, bank in model.banks().items()
                for field, arr in bank.state_dict().items()]
    if optimizer is not None:
        records += optimizer.state_records()
    return records


def _pack_record(name, arr, dtype):
    raw = name.encode("utf-8")
    parts = [struct.pack("<H", len(raw)), raw,
             struct.pack("<BB", _CODES[dtype], arr.ndim)]
    parts += [struct.pack("<Q", d) for d in arr.shape]
    parts.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise ValueError("truncated checkpoint file")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def _rng_state_to_meta(rng):
    st = rng.bit_generator.state
    return {"bit_generator": st["bit_generator"],
            "state": str(st["state"]["state"]), "inc": str(st["state"]["inc"]),
            "has_uint32": int(st["has_uint32"]), "uinteger": int(st["uinteger"])}


def _rng_from_meta(meta):
    """The rng saved by ``_rng_state_to_meta``; malformed metadata raises ValueError."""
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = {
            "bit_generator": meta["bit_generator"],
            "state": {"state": int(meta["state"]), "inc": int(meta["inc"])},
            "has_uint32": int(meta["has_uint32"]), "uinteger": int(meta["uinteger"])}
    except (KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed rng metadata: {e!r}") from None
    return rng


def blas_threads():
    """This process's BLAS thread setting, as a string: OPENBLAS_NUM_THREADS,
    else OMP_NUM_THREADS, else the number of CPUs the process may run on,
    which is what OpenBLAS starts when neither is set."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var]
    if hasattr(os, "sched_getaffinity"):
        return str(len(os.sched_getaffinity(0)))
    return str(os.cpu_count())


def save_checkpoint(model, path, rng=None, extra=None, optimizer=None):
    records = _records(model, optimizer)
    meta = {"extra": extra or {}, "blas_threads": blas_threads(),
            "blas_kernel": _blas.kernel(), "numpy": np.__version__}
    if rng is not None:
        meta["rng"] = _rng_state_to_meta(rng)
    cfg_blob = model.cfg.to_json().encode("utf-8")
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # a crash mid-write leaves the previous file at path untouched
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(cfg_blob)))
            fh.write(cfg_blob)
            fh.write(struct.pack("<Q", len(meta_blob)))
            fh.write(meta_blob)
            fh.write(struct.pack("<I", len(records)))
            for name, arr in records:
                fh.write(_pack_record(name, arr, _storage_dtype(arr)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """-> (float32 model, meta dict, rng or None). The model's banks hold
    the saved slots: eval forwards read them, train steps go on writing
    them. Rejects bad magic, version skew, truncation, trailing bytes, a
    record unlike the one ``_records`` lists at its place, non-finite
    parameters and bad bank states. Optimizer records are checked, not
    restored."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise ValueError("not a checkpoint: bad magic")
    version = r.u("<I")
    if version != VERSION:
        raise ValueError(f"checkpoint version {version} unsupported (want {VERSION})")
    cfg = config_from_dict(json.loads(r.take(r.u("<Q")).decode("utf-8")))
    meta = json.loads(r.take(r.u("<Q")).decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError("checkpoint metadata must be a JSON object")
    n_records = r.u("<I")
    model = Model(cfg)
    expected = _records(model)
    if n_records != len(expected):
        with_optimizer = _records(model, Adam(model.parameters()))
        if n_records != len(with_optimizer):
            raise ValueError(f"checkpoint holds {n_records} records; this config saves "
                             f"{len(expected)}, or {len(with_optimizer)} with optimizer state")
        expected = with_optimizer
    values = {}
    for want_name, want in expected:
        name = r.take(r.u("<H")).decode("utf-8")
        code, ndim = r.u("<B"), r.u("<B")
        got = (name, _DTYPES.get(code, f"code {code}"), tuple(r.u("<Q") for _ in range(ndim)))
        spec = (want_name, _storage_dtype(want), want.shape)
        if got != spec:
            raise ValueError("record %r %s %s where %r %s %s belongs" % (got + spec))
        dt = np.dtype(spec[1])
        values[name] = np.frombuffer(r.take(want.size * dt.itemsize), dtype=dt).reshape(want.shape)
    if r.pos != len(blob):
        raise ValueError(f"{len(blob) - r.pos} trailing bytes after last record")

    for name, t in model.parameters().items():
        if not np.all(np.isfinite(values[name])):
            raise ValueError(f"parameter {name!r} has non-finite values")
        t.value = np.array(values[name], dtype=t.value.dtype)
    for bname, bank in model.banks().items():
        bank.load_state({field: values[f"bank.{bname}.{field}"] for field in BANK_STATE_FIELDS})
    rng = _rng_from_meta(meta["rng"]) if "rng" in meta else None
    return model, meta.get("extra", {}), rng
