"""Optimizer step and schedule against hand-computed arithmetic."""

import numpy as np
import pytest

from hmn.autodiff import Tensor
from hmn.config import RunConfig
from hmn.optim import Adam, lr_at


def sched_cfg(lr=0.1, warmup=5, epochs=60):
    return RunConfig(dataset="synth_blobs", lr=lr, warmup_epochs=warmup,
                     epochs=epochs)


def test_schedule_endpoints():
    cfg = sched_cfg()
    assert lr_at(0.0, cfg) == 0.0
    assert lr_at(5.0, cfg) == 0.1
    assert abs(lr_at(60.0, cfg)) < 1e-17  # cos(pi) term cancels to 0


def test_schedule_warmup_is_linear():
    cfg = sched_cfg()
    for e in (1.0, 2.5, 4.0):
        np.testing.assert_allclose(lr_at(e, cfg), 0.1 * e / 5.0, rtol=1e-15)


def test_schedule_cosine_midpoint():
    cfg = sched_cfg()
    # halfway through decay: 0.5*(1 + cos(pi/2)) = 0.5
    np.testing.assert_allclose(lr_at(32.5, cfg), 0.05, atol=1e-15)


def test_schedule_monotone_after_peak():
    cfg = sched_cfg()
    values = [lr_at(e, cfg) for e in np.linspace(5.0, 60.0, 200)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_schedule_continuous_at_warmup_boundary():
    cfg = sched_cfg()
    assert abs(lr_at(5.0 - 1e-9, cfg) - lr_at(5.0 + 1e-9, cfg)) < 1e-9


def test_schedule_no_warmup():
    cfg = sched_cfg(warmup=0)
    assert lr_at(0.0, cfg) == 0.1


def test_schedule_range_validation():
    cfg = sched_cfg()
    with pytest.raises(ValueError):
        lr_at(-0.1, cfg)
    with pytest.raises(ValueError):
        lr_at(60.5, cfg)


def test_adam_first_step_matches_hand_arithmetic():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -3.0])
    opt = Adam({"p": p}, lr=0.01)
    opt.step()
    # t=1: m = 0.1*g, v = 0.001*g^2; bias-corrected back to g and g^2,
    # so the update is lr * g / (|g| + eps)
    g = np.array([0.5, -3.0])
    want = np.array([1.0, -2.0]) - 0.01 * ((0.1 * g) / 0.1) / (
        np.sqrt((0.001 * g * g) / 0.001) + 1e-8)
    np.testing.assert_allclose(p.value, want, rtol=1e-15)


def test_adam_two_steps_match_hand_arithmetic():
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    x0 = 0.5
    m = v = 0.0
    for t in (1, 2):
        g = 2.0 * p.value[0]  # pretend loss x^2
        p.grad = np.array([g])
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        x0 = x0 - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        opt.step()
        np.testing.assert_allclose(p.value[0], x0, rtol=1e-14)


def test_decay_shrinks_before_update():
    p = Tensor(np.array([10.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = Adam({"p": p}, lr=0.5, weight_decay=0.1)
    opt.step()
    # zero grad: the only movement is multiplicative decay 1 - lr*wd
    np.testing.assert_allclose(p.value, [10.0 * (1 - 0.5 * 0.1)], rtol=1e-15)


def test_decay_applies_to_every_param():
    a = Tensor(np.array([2.0]), requires_grad=True)
    b = Tensor(np.array([4.0]), requires_grad=True)
    a.grad = np.array([1.0])
    b.grad = None  # unreached by the loss this step
    opt = Adam({"a": a, "b": b}, lr=0.1, weight_decay=0.5)
    opt.step()
    np.testing.assert_allclose(b.value, [4.0 * (1 - 0.1 * 0.5)], rtol=1e-15)
    assert a.value[0] < 2.0 * (1 - 0.1 * 0.5)  # decay plus a gradient move


def test_none_grad_is_zero_update():
    p = Tensor(np.array([3.0]), requires_grad=True)
    p.grad = None
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.value, [3.0])


def test_step_lr_override():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = Adam({"p": p}, lr=0.1)
    opt.step(lr=0.0)
    np.testing.assert_array_equal(p.value, [1.0])


def test_state_records_cover_all_moments():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam({"p": p})
    names = [n for n, _ in opt.state_records()]
    assert names == ["opt.t", "opt.m.p", "opt.v.p"]
