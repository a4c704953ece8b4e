"""Per-class ring-buffer bank vs a naive keep-last-c list oracle."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmn.autodiff as ad
from hmn.memory import MemoryBank
from hmn.retrieval import retrieve_rows

from conftest import assert_same_bits


def test_capacity_split_even():
    bank = MemoryBank(10, 2500, 4)
    assert all(c == 250 for c in bank.per_class_capacity)


def test_capacity_split_small():
    bank = MemoryBank(100, 1000, 4)
    assert all(c == 10 for c in bank.per_class_capacity)


def test_capacity_remainder_goes_to_low_ids():
    bank = MemoryBank(3, 7, 2)
    assert list(bank.per_class_capacity) == [3, 2, 2]
    # slot ranges stay contiguous and ordered by class
    assert list(bank.class_start) == [0, 3, 5]


def one(bank, vec, cls):
    """Write a single row."""
    bank.write(np.asarray(vec, dtype=np.float64).reshape(1, -1), [cls])


def test_ring_eviction_keeps_most_recent():
    bank = MemoryBank(1, 2, 3)
    e1, e2, e3 = np.eye(3)
    one(bank, e1, 0)
    one(bank, e2, 0)
    one(bank, e3, 0)
    slots, slot_class, mask = bank.filled_view()
    assert mask.all()
    held = {tuple(row) for row in slots}
    assert held == {tuple(e2), tuple(e3)}
    assert tuple(e1) not in held


def test_batch_over_capacity_keeps_newest_rows():
    """Five class-0 rows into three slots and three class-1 rows into two,
    interleaved in one batch."""
    bank = MemoryBank(2, 5, 1)
    one(bank, [-1.0], 0)
    rows = np.arange(8.0).reshape(-1, 1)
    bank.write(rows, [0, 1, 0, 0, 1, 0, 0, 1])
    # class 0 (slots 0..2, written 1) gets 0, 2, 3, 5, 6 at positions 1, 2, 0, 1, 2
    np.testing.assert_array_equal(bank.slots[:3, 0], [3.0, 5.0, 6.0])
    # class 1 (slots 3..4, written 0) gets 1, 4, 7 at positions 0, 1, 0
    np.testing.assert_array_equal(bank.slots[3:, 0], [7.0, 4.0])
    assert list(bank.written) == [6, 3]
    assert list(bank.filled) == [3, 2]
    bank.write(np.array([[9.0]]), [1])
    np.testing.assert_array_equal(bank.slots[3:, 0], [7.0, 9.0])


def test_write_is_detached_copy():
    bank = MemoryBank(1, 4, 2)
    v = np.array([[1.0, 2.0]])
    bank.write(v, [0])
    v[0, 0] = 99.0
    slots, _, mask = bank.filled_view()
    np.testing.assert_array_equal(slots[0], [1.0, 2.0])


def test_write_changes_only_the_written_rows_in_place(rng):
    # classes 0 and 1 hold slots 0..2 and 3..5; one write to each wraps
    # class 0's ring, and no other slot's bytes move
    bank = MemoryBank(2, 6, 3)
    bank.write(rng.standard_normal((4, 3)), [0, 0, 1, 0])
    slots, before = bank.slots, bank.slots.copy()
    rows = rng.standard_normal((2, 3))
    bank.write(rows, [0, 1])
    assert bank.slots is slots
    np.testing.assert_array_equal(slots[[0, 4]], rows)
    for i in (1, 2, 3, 5):
        assert slots[i].tobytes() == before[i].tobytes(), i


def test_validation():
    bank = MemoryBank(2, 4, 3)
    with pytest.raises(ValueError):
        one(bank, np.ones(3), 2)
    with pytest.raises(ValueError):
        one(bank, np.ones(3), -1)
    with pytest.raises(ValueError):
        one(bank, np.ones(4), 0)
    with pytest.raises(ValueError):
        bank.write(np.ones(3), [0])  # one row must still be (1, D)
    with pytest.raises(ValueError):
        bank.write(np.ones((2, 3)), [0])
    with pytest.raises(ValueError):
        bank.write(np.ones((2, 3)), [0, 1, 1])
    # a rejected batch writes nothing, even its valid rows
    with pytest.raises(ValueError):
        bank.write(np.ones((2, 3)), [0, 5])
    assert not bank.any_filled


def test_filled_view_masks_unwritten_slots():
    bank = MemoryBank(2, 6, 2)
    assert not bank.any_filled
    one(bank, np.ones(2), 1)
    slots, slot_class, mask = bank.filled_view()
    assert mask.sum() == 1
    assert bank.any_filled
    # the filled slot sits inside class 1's range
    (idx,) = np.nonzero(mask)
    assert slot_class[idx[0]] == 1


def naive_ring(writes, num_classes, caps):
    """Keep-last-capacity lists per class, oldest first."""
    kept = {c: [] for c in range(num_classes)}
    for vec, cls in writes:
        kept[cls].append(tuple(vec))
        if len(kept[cls]) > caps[cls]:
            kept[cls].pop(0)
    return kept


def write_in_batches(bank, writes, cuts):
    """Write the (vec, cls) list as batches split at the sorted cut indices."""
    edges = [0, *cuts, len(writes)]
    for a, b in zip(edges[:-1], edges[1:]):
        batch = writes[a:b]
        bank.write(np.array([v for v, _ in batch]).reshape(-1, bank.dim),
                   [c for _, c in batch])


def check_against_oracle(num_classes, total_slots, dim, writes, cuts=None):
    """Bank contents after the writes vs the oracle; one row per batch by default."""
    bank = MemoryBank(num_classes, total_slots, dim)
    write_in_batches(bank, writes, range(1, len(writes)) if cuts is None else cuts)
    kept = naive_ring(writes, num_classes, list(bank.per_class_capacity))
    slots, slot_class, mask = bank.filled_view()
    for c in range(num_classes):
        got = {tuple(row) for row, sc, m in zip(slots, slot_class, mask) if m and sc == c}
        assert got == set(kept[c]), f"class {c} contents diverge from oracle"
    return bank


def test_oracle_ten_thousand_writes(rng):
    writes = [(rng.standard_normal(3), int(rng.integers(0, 5))) for _ in range(10000)]
    check_against_oracle(5, 23, 3, writes)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 20), st.lists(st.integers(0, 3), max_size=60),
       st.integers(0, 2 ** 31 - 1))
def test_oracle_random_traces(num_classes, extra_slots, classes, seed):
    total = num_classes + extra_slots
    gen = np.random.default_rng(seed)
    writes = [(gen.standard_normal(2), c % num_classes) for c in classes]
    check_against_oracle(num_classes, total, 2, writes)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), st.integers(0, 8), st.lists(st.integers(0, 3), max_size=60),
       st.lists(st.integers(0, 60), max_size=8), st.integers(0, 2 ** 31 - 1))
def test_batched_writes_match_one_row_writes(num_classes, extra_slots, classes, cuts, seed):
    """Any split into batches (empty ones, and more rows of a class than it
    has slots, included) leaves the bank exactly as one-row writes do."""
    gen = np.random.default_rng(seed)
    writes = [(gen.standard_normal(2), c % num_classes) for c in classes]
    cuts = sorted(min(c, len(writes)) for c in cuts)
    total = num_classes + extra_slots
    batched = check_against_oracle(num_classes, total, 2, writes, cuts)
    single = check_against_oracle(num_classes, total, 2, writes)
    np.testing.assert_array_equal(batched.slots, single.slots)
    np.testing.assert_array_equal(batched.written, single.written)


def test_state_round_trip(rng):
    bank = MemoryBank(3, 10, 4)
    bank.write(rng.standard_normal((17, 4)), rng.integers(0, 3, size=17))
    assert set(bank.state_dict()) == {"slots", "written"}
    clone = MemoryBank(3, 10, 4)
    clone.load_state(bank.state_dict())
    np.testing.assert_array_equal(clone.slots, bank.slots)
    np.testing.assert_array_equal(clone.written, bank.written)
    np.testing.assert_array_equal(clone.filled, bank.filled)
    with pytest.raises(ValueError):
        MemoryBank(3, 11, 4).load_state(bank.state_dict())


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 8), st.lists(st.integers(0, 40), min_size=4,
                                                      max_size=4),
       st.lists(st.integers(0, 3), max_size=30), st.integers(0, 2 ** 31 - 1))
def test_any_nonnegative_written_loads_as_the_writes_that_leave_it(
        num_classes, extra_slots, counts, later, seed):
    """A state with any write count per class loads, and a bank holding it
    places every later row where the bank that received that many rows
    places it."""
    gen = np.random.default_rng(seed)
    total = num_classes + extra_slots
    written = np.array(counts[:num_classes], dtype=np.int64)
    grown = MemoryBank(num_classes, total, 2)
    grown.write(gen.standard_normal((int(written.sum()), 2)),
                np.repeat(np.arange(num_classes), written))
    np.testing.assert_array_equal(grown.written, written)
    loaded = MemoryBank(num_classes, total, 2)
    loaded.load_state({"slots": grown.slots, "written": written})
    np.testing.assert_array_equal(loaded.filled,
                                  np.minimum(written, loaded.per_class_capacity))
    rows = gen.standard_normal((len(later), 2))
    cls = np.array([c % num_classes for c in later], dtype=np.int64)
    for bank in (grown, loaded):
        bank.write(rows, cls)
    np.testing.assert_array_equal(loaded.slots, grown.slots)
    np.testing.assert_array_equal(loaded.written, grown.written)


def _nan_slot(st):
    st["slots"][0, 1] = np.nan


# each edit turns a valid 3-class state into one that no sequence of writes leaves
BAD_STATES = [
    pytest.param(_nan_slot, id="nan_slot"),
    pytest.param(lambda st: st.update(slots=st["slots"][:-1]), id="slots_of_another_bank"),
    pytest.param(lambda st: st.update(written=st["written"][:1]), id="one_written_for_all_classes"),
    pytest.param(lambda st: st.update(written=np.array([-1, 2, 0])), id="negative_written"),
    pytest.param(lambda st: st.update(written=st["written"].astype(np.float64)),
                 id="float_written"),
    pytest.param(lambda st: st.update(written=np.array([2 ** 64 - 1, 2, 0], dtype=np.uint64)),
                 id="unsigned_written_past_int64"),
]


@pytest.mark.parametrize("edit", BAD_STATES)
def test_load_state_rejects_states_no_writes_leave(rng, edit):
    src = MemoryBank(3, 10, 2)  # capacities 4, 3, 3
    src.write(rng.standard_normal((2, 2)), [1, 1])
    state = src.state_dict()
    edit(state)
    dst = MemoryBank(3, 10, 2)
    dst.write(rng.standard_normal((1, 2)), [2])
    before = dst.state_dict()
    with pytest.raises(ValueError):
        dst.load_state(state)
    # a rejected state changes nothing
    after = dst.state_dict()
    for key in before:
        np.testing.assert_array_equal(after[key], before[key])


def read_bits(bank, z):
    weights, m = retrieve_rows(z, bank)
    return weights.value, m.value


def fresh_copy(bank):
    fresh = MemoryBank(bank.num_classes, bank.total_slots, bank.dim, bank.slots.dtype)
    fresh.load_state(bank.state_dict())
    return fresh


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_read_after_a_write_or_a_load_uses_the_new_slots(rng, dtype):
    # the keys a read builds are kept until the slots change; each read
    # after a change must equal a read from a bank that never read before
    bank = MemoryBank(3, 10, 4, dtype)
    z = rng.standard_normal((2, 5, 4)).astype(dtype)
    bank.write(rng.standard_normal((4, 4)), [0, 1, 2, 0])
    states = []
    for step in range(3):
        read_bits(bank, z)  # builds the keys of the current slots
        if step < 2:
            bank.write(rng.standard_normal((3, 4)), [step, 2, 1])
        else:
            bank.load_state(states[0])
        states.append(bank.state_dict())
        for got, want in zip(read_bits(bank, z), read_bits(fresh_copy(bank), z)):
            assert_same_bits(got, want)
    assert bank.keys() is bank.keys()
    assert not bank.keys().flags.writeable


def test_threads_reading_a_fresh_bank_build_its_keys_once(rng, monkeypatch):
    # more readers than cores, switching often, on a slow build: a reader
    # that saw no keys and built its own would make a second build
    bank = MemoryBank(3, 10, 4)
    bank.write(rng.standard_normal((6, 4)), [0, 1, 2, 0, 1, 2])
    builds, real = [], ad.read_keys

    def slow(slots):
        builds.append(None)
        time.sleep(1e-3)
        return real(slots)

    monkeypatch.setattr(ad, "read_keys", slow)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=lambda: got.append(bank.keys()), daemon=True)
                   for _ in range(8)]
        for r in readers:
            r.start()
        for r in readers:
            r.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(r.is_alive() for r in readers)
    assert len(builds) == 1 and len(got) == 8
    assert all(k is got[0] for k in got)

