"""Run configuration: one flat, frozen record covering architecture, optimizer, data.

Loaded from UTF-8 JSON. Unknown keys are rejected so typos fail loudly. A
RunConfig is checked when it is built, and ``dataclasses.replace`` checks
the new one again, so a config that exists is valid and its fields cannot
be reassigned. What the dataset fixes (channel count, class count,
normalization constants) is a read-only property, not a field.
``image_size`` is a field that only ``synth_blobs`` may choose; null
means the dataset's size. It is stored as a tuple, so a checked config
cannot be changed through it, and written to JSON as a list.
"""

import dataclasses
import json
import math
from collections import namedtuple
from dataclasses import dataclass

_Dataset = namedtuple("_Dataset", "image_size in_channels num_classes norm_mean norm_std")

# the normalization constants are fixed here rather than recomputed so runs
# are reproducible; synth_blobs takes its class count from synth_classes
_DATASET_INFO = {
    "cifar10": _Dataset((32, 32), 3, 10, (0.4914, 0.4822, 0.4465), (0.2470, 0.2435, 0.2616)),
    "fashion_mnist": _Dataset((28, 28), 1, 10, (0.2860,), (0.3530,)),
    "synth_blobs": _Dataset((16, 16), 1, None, (0.5,), (0.5,)),
}

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _has_type(v, kind):
    if kind is int:
        return _is_int(v)
    if kind is float:
        return _is_int(v) or isinstance(v, float) and math.isfinite(v)
    return isinstance(v, kind)


@dataclass(frozen=True)
class RunConfig:
    # architecture
    patch_size: int = 4
    d_emb: int = 64
    d_lat: int = 64
    n_blocks: int = 4
    k: int = 3
    mlp_ratio: int = 2
    k_local: int = 500
    k_global: int = 200
    t_steps: int = 1
    beta_init: float = 0.2
    write_sample: int = 4
    # optimizer
    lr: float = 1e-3
    warmup_epochs: int = 5
    epochs: int = 60
    batch_size: int = 128
    weight_decay: float = 5e-5
    # data
    dataset: str = "synth_blobs"
    data_dir: str = ""
    fraction: float = 1.0
    imbalance_ratio: float = 1.0
    augment: bool = True
    image_size: tuple = None
    synth_classes: int = 2
    synth_train_per_class: int = 200
    synth_test_per_class: int = 50
    synth_noise: float = 0.1
    # run
    seed: int = 0
    out_dir: str = "runs/default"

    def __post_init__(self):
        """Fill image_size and check every value; raises ValueError naming the field."""
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name != "image_size" and not _has_type(v, f.type):
                raise ValueError(f"{f.name} must be {_KINDS[f.type]}, got {v!r}")
        if self.dataset not in _DATASET_INFO:
            raise ValueError(f"unknown dataset {self.dataset!r}; choose from {sorted(_DATASET_INFO)}")
        size = _DATASET_INFO[self.dataset].image_size
        image_size = size if self.image_size is None else self.image_size
        if not (isinstance(image_size, (list, tuple)) and len(image_size) == 2
                and all(_is_int(s) and s > 0 for s in image_size)):
            raise ValueError(f"image_size must be two positive integers, got {image_size!r}")
        if self.dataset != "synth_blobs" and tuple(image_size) != size:
            raise ValueError(f"{self.dataset} images are {size[0]}x{size[1]}; "
                             f"image_size must be null or {list(size)}, got {image_size!r}")
        # the one write after construction; the dataclass is frozen
        object.__setattr__(self, "image_size", tuple(image_size))

        positives = ["patch_size", "d_emb", "d_lat", "n_blocks", "mlp_ratio",
                     "lr", "epochs", "batch_size", "num_classes",
                     "synth_train_per_class", "synth_test_per_class"]
        for name in positives:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        h, w = self.image_size
        p = self.patch_size
        if h % p or w % p:
            raise ValueError(f"image {h}x{w} not divisible by patch size {p}")
        if self.k % 2 == 0 or self.k < 1:
            raise ValueError(f"window size k must be odd and positive, got {self.k}")
        n_tokens = (h // p) * (w // p)
        if not 1 <= self.write_sample <= n_tokens:
            raise ValueError(f"write_sample must be in [1, {n_tokens}], got {self.write_sample}")
        if self.t_steps < 0:
            raise ValueError(f"t_steps must be nonnegative, got {self.t_steps}")
        if self.k_local < self.num_classes or self.k_global < self.num_classes:
            raise ValueError("memory banks need at least one slot per class")
        # memory_read's softmax has no max pass and divides after the mix:
        # its row sum reaches K·e^√D, and the unnormalized products e·slots
        # and e·dα that many times a slot or gradient component. float32
        # overflows past e^88.7; below 60 they keep e^28 of headroom
        reach = math.sqrt(self.d_lat) + math.log(max(self.k_local, self.k_global))
        if reach >= 60.0:
            raise ValueError(f"d_lat {self.d_lat} is too wide for the memory read: "
                             f"sqrt(d_lat) + ln(max(k_local, k_global)) is {reach:.2f}, "
                             "and must stay below 60")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.imbalance_ratio < 1.0:
            raise ValueError(f"imbalance_ratio must be >= 1, got {self.imbalance_ratio}")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError(f"warmup_epochs must be in [0, epochs), got {self.warmup_epochs}")
        if self.synth_noise < 0:
            raise ValueError(f"synth_noise must be nonnegative, got {self.synth_noise}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")

    def resolve(self):
        """Returns self: a RunConfig is complete and checked when it is built."""
        return self

    @property
    def num_classes(self):
        classes = _DATASET_INFO[self.dataset].num_classes
        return self.synth_classes if classes is None else classes

    @property
    def in_channels(self):
        return _DATASET_INFO[self.dataset].in_channels

    @property
    def norm_mean(self):
        return list(_DATASET_INFO[self.dataset].norm_mean)

    @property
    def norm_std(self):
        return list(_DATASET_INFO[self.dataset].norm_std)

    @property
    def grid_shape(self):
        return self.image_size[0] // self.patch_size, self.image_size[1] // self.patch_size

    @property
    def n_tokens(self):
        hp, wp = self.grid_shape
        return hp * wp

    def to_json(self):
        """Canonical form: sorted keys, no whitespace; stable across reruns.

        Filesystem locations (data_dir, out_dir) are dropped: they describe
        where a run happened, not what was run, so two runs of the same
        experiment snapshot identically wherever their files land.
        """
        d = dataclasses.asdict(self)
        d.pop("data_dir", None)
        d.pop("out_dir", None)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))


def config_from_dict(d):
    """The RunConfig a parsed JSON config describes; raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("config root must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**d)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"config is not valid JSON: {e}") from None
    return config_from_dict(raw)
