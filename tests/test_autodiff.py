"""Reverse-mode engine tests.

Every differentiable op is checked against central differences computed
by a helper local to this file (independent of the package's own FD
harness, which gets its own tests at the bottom). Value-level oracles
are closed forms worked out by hand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hmn.autodiff as ad
from hmn.autodiff import Tensor


def numeric_grad(build, param, step=1e-6):
    """Central-difference d build() / d param, rebuilt per probe."""
    num = np.zeros_like(param.value)
    flat_v = param.value.reshape(-1)
    flat_n = num.reshape(-1)
    for i in range(flat_v.size):
        keep = flat_v[i]
        flat_v[i] = keep + step
        hi = build().value.item()
        flat_v[i] = keep - step
        lo = build().value.item()
        flat_v[i] = keep
        flat_n[i] = (hi - lo) / (2.0 * step)
    return num


def fd_check(build, params, tol=1e-6, step=1e-6):
    for p in params:
        p.requires_grad = True
        p.grad = None
    ad.backward(build())
    for p in params:
        got = p.grad if p.grad is not None else np.zeros_like(p.value)
        want = numeric_grad(build, p, step=step)
        denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-8)
        worst = float((np.abs(got - want) / denom).max())
        assert worst < tol, f"gradient mismatch {worst:.3e}"


def scalarize(t, proj):
    # project rows through a fixed matrix so dout is non-uniform
    return ad.sum_all(ad.matmul(t, proj))


# ------------------------------------------------------------- value oracles

def test_matmul_example():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.value.shape == (1, 1)
    assert out.value[0, 0] == 11.0


def test_matmul_identity(rng):
    a = rng.standard_normal((4, 4))
    out = ad.matmul(Tensor(a), Tensor(np.eye(4)))
    np.testing.assert_array_equal(out.value, a)


def test_matmul_grouped_value_matches_per_group(rng):
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((3, 5))
    out = ad.matmul(Tensor(a), Tensor(b), groups=3).value
    for g in range(3):
        np.testing.assert_array_equal(out[2 * g:2 * g + 2], a[2 * g:2 * g + 2] @ b)


def test_softmax_uniform_rows():
    out = ad.softmax_rows(Tensor([[0.0, 0.0]])).value
    assert out[0, 0] == 0.5 and out[0, 1] == 0.5


def test_softmax_large_inputs_no_overflow():
    out = ad.softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]])).value
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)


def test_softmax_log_ratios():
    x = np.log([[1.0, 2.0, 3.0]])
    out = ad.softmax_rows(Tensor(x)).value
    np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], rtol=1e-14)


def test_l2_normalize_345():
    out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]])).value
    assert out[0, 0] == 0.6 and out[0, 1] == 0.8


def test_l2_normalize_zero_row_stays_zero():
    out = ad.l2_normalize_rows(Tensor([[0.0, 0.0, 0.0]])).value
    np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0]])


def test_cross_entropy_uniform_binary():
    loss = ad.cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
    assert loss.value.item() == float(np.log(2.0))


def test_layernorm_constant_row_maps_to_bias(rng):
    gain = Tensor(rng.standard_normal(4))
    bias = Tensor(rng.standard_normal(4))
    out = ad.layernorm_rows(Tensor([[7.0, 7.0, 7.0, 7.0]]), gain, bias).value
    np.testing.assert_allclose(out, bias.value[None, :], atol=1e-12)


def test_gelu_matches_the_closed_form():
    # the cube is x·x·x rather than x**3; the two differ in the last bit
    x = np.concatenate([np.linspace(-40.0, 40.0, 20001), [-1e3, -1e-8, 0.0, 1e-8, 1e3]])
    c = np.sqrt(2.0 / np.pi)
    want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
    got = ad.gelu(Tensor(x)).value
    assert (np.abs(got - want) <= 1e-15 * (1.0 + np.abs(x))).all()


# --------------------------------------------------------- analytic backward

def test_backward_linear_map(rng):
    a = rng.standard_normal((3, 4))
    x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    ad.backward(ad.sum_all(ad.matmul(Tensor(a), x)))
    # d sum(A x) / dx = A^T 1
    want = np.repeat(a.sum(axis=0)[:, None], 2, axis=1)
    np.testing.assert_allclose(x.grad, want, rtol=1e-12)


def test_backward_shared_operand(rng):
    # X used as both sides of a matmul: grads from both roles accumulate
    xv = rng.standard_normal((3, 3))
    x = Tensor(xv, requires_grad=True)
    ad.backward(ad.sum_all(ad.matmul(x, x)))
    ones = np.ones((3, 3))
    want = ones @ xv.T + xv.T @ ones
    np.testing.assert_allclose(x.grad, want, rtol=1e-12)


def test_backward_accumulates_across_branches(rng):
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    ad.backward(ad.sum_all(ad.add(x, x)))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


# ----------------------------------------------------------------- FD per op

def test_fd_matmul(rng):
    a = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal((3, 5)))
    proj = Tensor(rng.standard_normal((5, 1)))
    fd_check(lambda: scalarize(ad.matmul(a, b), proj), [a, b])


def test_fd_matmul_grouped(rng):
    a = Tensor(rng.standard_normal((6, 3)))
    b = Tensor(rng.standard_normal((3, 4)))
    proj = Tensor(rng.standard_normal((4, 1)))
    fd_check(lambda: scalarize(ad.matmul(a, b, groups=2), proj), [a, b])


def test_fd_group_weighted_sum(rng):
    w = Tensor(rng.standard_normal((2, 3)))
    rows = Tensor(rng.standard_normal((6, 4)))
    proj = Tensor(rng.standard_normal((4, 1)))
    fd_check(lambda: scalarize(ad.group_weighted_sum(w, rows, 2), proj), [w, rows])


def test_fd_elementwise_ops(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)))
    s = Tensor(np.array(0.7))
    bias = Tensor(rng.standard_normal(4))
    proj = Tensor(rng.standard_normal((4, 1)))

    fd_check(lambda: scalarize(ad.add(a, b), proj), [a, b])
    fd_check(lambda: scalarize(ad.sub(a, b), proj), [a, b])
    fd_check(lambda: scalarize(ad.scalar_mul(a, -1.7), proj), [a])
    fd_check(lambda: scalarize(ad.scale(a, s), proj), [a, s])
    fd_check(lambda: scalarize(ad.add_bias(a, bias), proj), [a, bias])


def test_fd_gelu(rng):
    x = Tensor(rng.standard_normal((3, 5)) * 2.0)
    proj = Tensor(rng.standard_normal((5, 1)))
    fd_check(lambda: scalarize(ad.gelu(x), proj), [x])


def test_fd_softmax(rng):
    x = Tensor(rng.standard_normal((4, 6)))
    proj = Tensor(rng.standard_normal((6, 1)))
    fd_check(lambda: scalarize(ad.softmax_rows(x), proj), [x])


def test_fd_softmax_masked(rng):
    x = Tensor(rng.standard_normal((3, 5)))
    mask = np.array([True, False, True, True, False])
    proj = Tensor(rng.standard_normal((5, 1)))
    fd_check(lambda: scalarize(ad.softmax_rows(x, mask=mask), proj), [x])


def test_fd_l2_normalize(rng):
    x = Tensor(rng.standard_normal((4, 3)) + 2.0)
    proj = Tensor(rng.standard_normal((3, 1)))
    fd_check(lambda: scalarize(ad.l2_normalize_rows(x), proj), [x])


def test_fd_layernorm(rng):
    x = Tensor(rng.standard_normal((3, 6)))
    gain = Tensor(rng.standard_normal(6))
    bias = Tensor(rng.standard_normal(6))
    proj = Tensor(rng.standard_normal((6, 1)))
    fd_check(lambda: scalarize(ad.layernorm_rows(x, gain, bias), proj), [x, gain, bias])


def test_fd_row_shaping_ops(rng):
    x = Tensor(rng.standard_normal((6, 3)))
    proj = Tensor(rng.standard_normal((3, 1)))
    proj6 = Tensor(rng.standard_normal((6, 1)))

    fd_check(lambda: scalarize(ad.mean_rows(x, groups=2), proj), [x])
    fd_check(lambda: scalarize(ad.repeat_rows_each(ad.mean_rows(x, groups=3), 2), proj), [x])
    fd_check(lambda: scalarize(ad.tile_rows(x, 3), proj), [x])
    fd_check(lambda: scalarize(ad.concat_last_axis(x, x), proj6), [x])
    fd_check(lambda: scalarize(ad.reshape(x, (3, 6)), proj6), [x])
    fd_check(lambda: ad.sum_all(x), [x])


def test_fd_unfold(rng):
    grid = Tensor(rng.standard_normal((4, 3, 2)))
    proj = Tensor(rng.standard_normal((9 * 2, 1)))
    fd_check(lambda: scalarize(ad.unfold(grid, 3), proj), [grid])


def test_fd_unfold_tokens(rng):
    x = Tensor(rng.standard_normal((2 * 6, 2)))  # two 2x3 grids stacked
    proj = Tensor(rng.standard_normal((9 * 2, 1)))
    fd_check(lambda: scalarize(ad.unfold_tokens(x, 2, 3, 3), proj), [x])


def test_fd_cross_entropy(rng):
    logits = Tensor(rng.standard_normal((5, 4)))
    labels = np.array([0, 3, 1, 1, 2])
    fd_check(lambda: ad.cross_entropy(logits, labels), [logits])


# ------------------------------------------------------------ masked softmax

def test_masked_softmax_exact_zeros_and_renormalization(rng):
    x = rng.standard_normal((4, 6))
    mask = np.array([True, True, False, True, False, True])
    out = ad.softmax_rows(Tensor(x), mask=mask).value
    assert (out[:, ~mask] == 0.0).all()
    dense = ad.softmax_rows(Tensor(x[:, mask])).value
    np.testing.assert_allclose(out[:, mask], dense, rtol=1e-14)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(4), rtol=1e-14)


def test_masked_softmax_per_row_mask(rng):
    x = rng.standard_normal((2, 3))
    mask = np.array([[True, False, True], [False, True, True]])
    out = ad.softmax_rows(Tensor(x), mask=mask).value
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0


def test_all_true_mask_is_the_unmasked_softmax(rng):
    x = rng.standard_normal((5, 7))
    proj = Tensor(rng.standard_normal((7, 1)))
    runs = []
    for mask in (None, np.ones(7, dtype=bool), np.ones((5, 7), dtype=bool)):
        t = Tensor(x.copy(), requires_grad=True)
        out = ad.softmax_rows(t, mask=mask)
        ad.backward(ad.sum_all(ad.matmul(out, proj)))
        runs.append((out.value, t.grad))
    for value, grad in runs[1:]:
        np.testing.assert_array_equal(value, runs[0][0])
        np.testing.assert_array_equal(grad, runs[0][1])


def test_fully_masked_row_rejected(rng):
    x = Tensor(rng.standard_normal((2, 3)))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(ValueError):
        ad.softmax_rows(x, mask=mask)


# -------------------------------------------------------------- error paths

def test_backward_requires_scalar(rng):
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.add(x, x))


def test_double_backward_rejected(rng):
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    loss = ad.sum_all(x)
    ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.backward(loss)


def test_nan_input_trips_finite_check():
    bad = Tensor(np.array([[np.nan, 1.0]]))
    with pytest.raises(FloatingPointError):
        ad.add(bad, Tensor(np.zeros((1, 2))))


def test_overflow_trips_finite_check():
    big = Tensor(np.array([[1e200]]))
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            ad.matmul(big, big)


def test_shape_validation_errors(rng):
    a = Tensor(rng.standard_normal((2, 3)))
    with pytest.raises(ValueError):
        ad.matmul(a, Tensor(rng.standard_normal((4, 2))))
    with pytest.raises(ValueError):
        ad.matmul(Tensor(rng.standard_normal((5, 2))), Tensor(rng.standard_normal((2, 2))), groups=2)
    with pytest.raises(ValueError):
        ad.add(a, Tensor(rng.standard_normal((3, 2))))
    with pytest.raises(ValueError):
        ad.scale(a, Tensor(rng.standard_normal(3)))
    with pytest.raises(ValueError):
        ad.add_bias(a, Tensor(rng.standard_normal(2)))
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(rng.standard_normal((2, 3))), np.array([0, 3]))
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(rng.standard_normal((2, 3))), np.array([0]))


# ------------------------------------------------------------ no_grad scope

def test_no_grad_records_no_graph(rng):
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 3)))
    with ad.no_grad():
        out = ad.gelu(ad.matmul(x, w))
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    # the same ops outside the scope build a graph with the same values
    again = ad.gelu(ad.matmul(x, w))
    assert again.requires_grad and again._parents
    np.testing.assert_array_equal(out.value, again.value)


def test_no_grad_still_checks_finiteness():
    with ad.no_grad():
        with pytest.raises(FloatingPointError):
            ad.add(Tensor(np.array([[np.inf, 1.0]])), Tensor(np.zeros((1, 2))))


def test_no_grad_restores_the_flag(rng):
    w = Tensor(rng.standard_normal((2, 2)), requires_grad=True)

    def records():
        return ad.scalar_mul(w, 2.0).requires_grad

    with ad.no_grad():
        with ad.no_grad():
            assert not records()
        assert not records()
    assert records()
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("boom")
    assert records()


# ------------------------------------------------------- hypothesis sanity

@settings(deadline=None, max_examples=40)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(-50, 50)))
def test_softmax_rows_sum_to_one(x):
    out = ad.softmax_rows(Tensor(x)).value
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(x.shape[0]), rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(-50, 50)),
       st.floats(-100, 100))
def test_softmax_shift_invariance(x, shift):
    a = ad.softmax_rows(Tensor(x)).value
    b = ad.softmax_rows(Tensor(x + shift)).value
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)))
def test_l2_normalized_rows_have_unit_or_zero_norm(x):
    out = ad.l2_normalize_rows(Tensor(x)).value
    norms = np.sqrt((out ** 2).sum(axis=1))
    src = np.sqrt((x ** 2).sum(axis=1))
    for n, s in zip(norms, src):
        if s > 1e-12:
            assert abs(n - 1.0) < 1e-9
        else:
            assert n <= 1.0


# ----------------------------------------------- the package's own FD tools

def test_fd_gradient_quadratic(rng):
    x = rng.standard_normal(5)
    g = ad.fd_gradient(lambda v: float((v ** 2).sum()), x.copy(), step=1e-6)
    np.testing.assert_allclose(g, 2 * x, atol=1e-8)


def test_max_rel_err_arithmetic():
    got = ad.max_rel_err(np.array([1.0, 2.0]), np.array([1.0, 2.2]))
    np.testing.assert_allclose(got, 0.2 / 2.2, rtol=1e-12)
    assert ad.max_rel_err(np.zeros(3), np.zeros(3)) == 0.0


def test_check_gradients_passes_composite(rng):
    x = Tensor(rng.standard_normal((3, 4)))
    w = Tensor(rng.standard_normal((4, 2)))

    def build():
        return ad.cross_entropy(ad.matmul(ad.gelu(x), w), np.array([0, 1, 0]))

    assert ad.check_gradients(build, [x, w], step=1e-6) < 1e-6


def test_check_gradients_flags_wrong_backward(rng):
    x = Tensor(rng.standard_normal((2, 2)))

    def build():
        # doubled forward with a deliberately wrong pullback (3x instead of 2x)
        bad = ad._node(x.value * 2.0, (x,), lambda dout: ad._accum(x, 3.0 * dout), "bad")
        return ad.sum_all(bad)

    assert ad.check_gradients(build, [x]) > 0.2
