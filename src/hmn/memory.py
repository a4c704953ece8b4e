"""Class-balanced prototype storage with per-class ring-buffer replacement.

Each class owns a fixed contiguous range of slots. A write takes a batch
of rows with their class ids and stores them in row order. The ring state
is one count per class, ``written``: row j of a class goes to ring position
(written + j) % capacity, so the newest capacity[c] embeddings for a class
are always present, and any nonnegative count is a state some writes
leave. Slots never carry gradients; callers hand in plain arrays. A write
changes the slot array ``filled_view`` hands out in place, so a read's
backward must run before its bank's next write. Both writers ensure it:
``train.train_step`` writes after its last backward, and
``Model.forward(mode="train")`` swaps in a copy first. A bank has no mode.

A bank also keeps the keys its reads score against (``keys``), built on
the first read after a ``write`` or ``load_state``, the only two ways
its slots may change, and shared by every read until the next. A write
drops them rather than changing them, so a backward holding them keeps
the keys of the slots it read.
"""

import threading

import numpy as np

from . import autodiff as ad

# the records of a bank's checkpoint state, in the order they are saved
BANK_STATE_FIELDS = ("slots", "written")


class MemoryBank:
    def __init__(self, num_classes, total_slots, dim, dtype=np.float64):
        if total_slots < num_classes:
            raise ValueError(f"need at least one slot per class: K={total_slots} < C={num_classes}")
        if num_classes < 1 or dim < 1:
            raise ValueError("num_classes and dim must be positive")
        self.num_classes = int(num_classes)
        self.total_slots = int(total_slots)
        self.dim = int(dim)
        base, extra = divmod(self.total_slots, self.num_classes)
        # the K mod C remainder goes one slot each to the lowest class ids
        self.per_class_capacity = np.full(self.num_classes, base, dtype=np.int64)
        self.per_class_capacity[:extra] += 1
        self.class_start = np.zeros(self.num_classes, dtype=np.int64)
        self.class_start[1:] = np.cumsum(self.per_class_capacity)[:-1]
        self.slots = np.zeros((self.total_slots, self.dim), dtype=dtype)
        self.slot_class = np.repeat(
            np.arange(self.num_classes, dtype=np.int64), self.per_class_capacity)
        self.written = np.zeros(self.num_classes, dtype=np.int64)
        # the slots' read_keys, None until a read needs them; the lock makes
        # two lanes' first reads build them once
        self._keys = None
        self._keys_lock = threading.Lock()

    def write(self, rows, class_ids):
        """Copy (n, D) detached rows into their classes' ring slots in place, in row order.

        The result is exactly that of n one-row writes: of more than
        capacity[c] rows of one class only the newest capacity[c] are kept.
        """
        rows = np.asarray(rows, dtype=self.slots.dtype)
        cls = np.asarray(class_ids, dtype=np.int64).reshape(-1)
        if rows.shape != (len(cls), self.dim):
            raise ValueError(f"rows {rows.shape} do not match ({len(cls)}, {self.dim})")
        if len(cls) and not (0 <= cls.min() and cls.max() < self.num_classes):
            raise ValueError(f"class ids out of range [0, {self.num_classes})")
        for c in np.unique(cls):
            own = rows[cls == c]
            n, cap = len(own), self.per_class_capacity[c]
            # row j of n lands on ring position written + j; later rows overwrite
            kept = np.arange(max(n - cap, 0), n)
            self.slots[self.class_start[c] + (self.written[c] + kept) % cap] = own[kept]
            self.written[c] += n
        self._keys = None

    @property
    def filled(self):
        """Written slots per class: the write count, capped at the capacity."""
        return np.minimum(self.written, self.per_class_capacity)

    @property
    def any_filled(self):
        return bool(self.written.any())

    def filled_view(self):
        """(slots, slot_class, mask) at full width K; mask marks written slots.

        Slot indices are stable across training, so analysis can track a
        slot over time.
        """
        offset = np.arange(self.total_slots) - self.class_start[self.slot_class]
        return self.slots, self.slot_class, offset < self.filled[self.slot_class]

    def keys(self):
        """The (D, K) ``autodiff.read_keys`` of the slots, built once per
        state of the bank: the first call after a write or load_state
        builds them, later calls return the same read-only array."""
        with self._keys_lock:
            if self._keys is None:
                self._keys = ad.read_keys(self.slots)
            return self._keys

    # checkpoint plumbing; arrays are copied on both paths
    def state_dict(self):
        return dict(zip(BANK_STATE_FIELDS, (self.slots.copy(), self.written.copy())))

    def load_state(self, state):
        """Restore state_dict's slots and write counts in place.

        Finite slots and nonnegative integer counts, of the bank's shapes,
        are the whole check: some writes leave any such state. A rejected
        state raises ValueError and changes nothing.
        """
        slots, written = (np.asarray(state[k]) for k in BANK_STATE_FIELDS)
        if slots.shape != self.slots.shape:
            raise ValueError("bank state shape mismatch")
        if not np.all(np.isfinite(slots)):
            raise ValueError("bank slots are not finite")
        if (written.shape != self.written.shape or written.dtype.kind not in "iu"
                or np.any(written.astype(np.int64) < 0)):
            raise ValueError(f"bank written must be a nonnegative integer array "
                             f"of shape {self.written.shape}")
        self.slots[:] = slots
        self.written[:] = written
        self._keys = None
