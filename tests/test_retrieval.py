"""Retrieval and refinement against hand-derived closed forms.

The two-slot numbers below were frozen from a 50-digit computation of
softmax(sqrt(2) * [1, 0]) and the resulting convex slot mixture; the
tests compare at 1e-12.
"""

import numpy as np
import pytest

import hmn
import hmn.autodiff as ad
from hmn.analysis import _rank_slots
from hmn.autodiff import Tensor
from hmn.memory import MemoryBank
from hmn.retrieval import refine_rows, retrieve_rows, variance_probe

from conftest import total

ALPHA_2SLOT = np.array([0.8044296825069569051929726, 0.1955703174930430948070274])
M_2SLOT = np.array([0.8044296825069569051929726, 0.5867109524791292844210822])
REFINED_2SLOT = np.array([1.760885936501391381038595, 0.1173421904958258568842164])


def two_slot_bank():
    bank = MemoryBank(2, 2, 2)
    bank.write(np.array([[1.0, 0.0], [0.0, 3.0]]), [0, 1])
    return bank


def row(v):
    return Tensor(np.asarray(v, dtype=np.float64).reshape(1, -1))


def half_sq(a, b):
    """½‖a − b‖², the refinement energy of a state against its prototype."""
    return float(0.5 * ((np.asarray(a) - np.asarray(b)) ** 2).sum())


def test_single_slot_full_weight(rng):
    bank = MemoryBank(1, 1, 4)
    v = rng.standard_normal(4)
    bank.write(v.reshape(1, -1), [0])
    alpha, m = retrieve_rows(row(rng.standard_normal(4)), bank)
    assert alpha.value.shape == (1, 1)
    assert alpha.value[0, 0] == 1.0
    np.testing.assert_array_equal(m.value[0], v)


def test_two_slot_oracle():
    alpha, m = retrieve_rows(row([2.0, 0.0]), two_slot_bank())
    np.testing.assert_allclose(alpha.value[0], ALPHA_2SLOT, rtol=1e-12)
    np.testing.assert_allclose(m.value[0], M_2SLOT, rtol=1e-12)
    assert list(_rank_slots(alpha.value[0])) == [0, 1]


def test_refine_one_step_oracle():
    z0 = row([2.0, 0.0])
    out, alpha = refine_rows(z0, two_slot_bank(), Tensor(np.array([0.2])), 1)
    np.testing.assert_allclose(out.value[0], REFINED_2SLOT, rtol=1e-12)
    # the one step read the bank at the starting state
    np.testing.assert_allclose(alpha.value[0], ALPHA_2SLOT, rtol=1e-12)
    np.testing.assert_array_equal(z0.value[0], [2.0, 0.0])


def test_empty_bank_returns_query(rng):
    bank = MemoryBank(2, 4, 3)
    z = row(rng.standard_normal(3))
    with pytest.raises(ValueError, match="every slot is masked"):
        retrieve_rows(z, bank)
    out, alpha = refine_rows(z, bank, Tensor(np.array([0.5])), 2)
    assert out is z and alpha is None


def test_refine_against_an_empty_bank_passes_gradients_through(rng):
    """An empty bank is skipped like T=0: no node is recorded, z gets the
    upstream gradient exactly and β gets none."""
    z = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    beta = Tensor(np.array([0.35]), requires_grad=True)
    out, alpha = refine_rows(z, MemoryBank(2, 4, 4), beta, 3)
    assert out is z and alpha is None
    dout = rng.standard_normal((z.value.size, 1))
    ad.backward(ad.matmul(ad.reshape(out, (1, -1)), Tensor(dout)))
    np.testing.assert_array_equal(z.grad, dout.reshape(z.value.shape))
    assert beta.grad is None


def test_alpha_invariant_to_query_scale(rng):
    bank = two_slot_bank()
    z = rng.standard_normal(2)
    a1, _ = retrieve_rows(Tensor(z.reshape(1, -1)), bank)
    a2, _ = retrieve_rows(Tensor((7.5 * z).reshape(1, -1)), bank)
    np.testing.assert_allclose(a1.value, a2.value, rtol=1e-12)


def test_mixture_linear_in_slot_scale(rng):
    z = rng.standard_normal(3)
    vecs = rng.standard_normal((4, 3))
    m_by_scale = {}
    for c in (1.0, 5.0):
        bank = MemoryBank(2, 4, 3)
        bank.write(c * vecs, [0, 1, 0, 1])
        m_by_scale[c] = retrieve_rows(row(z), bank)[1].value
    np.testing.assert_allclose(m_by_scale[5.0], 5.0 * m_by_scale[1.0], rtol=1e-12)


def test_ties_rank_lower_slot_first(rng):
    bank = MemoryBank(2, 2, 3)
    v = rng.standard_normal(3)
    bank.write(np.stack([v, v]), [0, 1])
    alpha, _ = retrieve_rows(row(rng.standard_normal(3)), bank)
    assert alpha.value[0, 0] == alpha.value[0, 1]
    assert list(_rank_slots(alpha.value[0])) == [0, 1]


def test_query_shape_validation(rng):
    bank = two_slot_bank()
    with pytest.raises(ValueError):
        retrieve_rows(Tensor(np.ones(2)), bank)
    with pytest.raises(ValueError):
        retrieve_rows(Tensor(np.ones((2, 3))), bank)


def test_public_names_resolve():
    for name in hmn.__all__:
        assert getattr(hmn, name) is not None, name


# ------------------------------------------------------------------ refining

def test_refine_zero_steps_is_identity(rng):
    z = Tensor(rng.standard_normal((3, 2)))
    out, alpha = refine_rows(z, two_slot_bank(), Tensor(np.array([0.7])), 0)
    assert out is z and alpha is None


def test_refine_zero_beta_matches_zero_steps(rng):
    z = Tensor(rng.standard_normal((3, 2)))
    out0, alpha = refine_rows(z, two_slot_bank(), Tensor(np.array([0.0])), 3)
    assert out0 is z
    assert alpha is None  # the bank is never read


def test_one_step_error_shrinks_by_one_minus_beta(rng):
    """With the retrieved target held fixed, ‖z' − m‖ = |1−β|·‖z − m‖."""
    bank = two_slot_bank()
    z = np.array([2.0, 0.0])
    m0 = retrieve_rows(row(z), bank)[1].value[0]
    e0 = half_sq(z, m0)
    for beta in (0.2, 0.5, 1.0, 1.5):
        out, _ = refine_rows(row(z), bank, Tensor(np.array([beta])), 1)
        got = half_sq(out.value[0], m0)
        want = (1.0 - beta) ** 2 * e0
        assert abs(got - want) <= 1e-12 * max(e0, 1.0), f"beta={beta}"


def test_trace_energies_decrease_near_attractor():
    """½‖m(z_t) − z_t‖² along eight one-step refinements."""
    bank = two_slot_bank()
    beta = Tensor(np.array([0.5]))
    z = row([2.0, 0.0])
    energies = []
    for _ in range(8):
        energies.append(half_sq(retrieve_rows(z, bank)[1].value, z.value))
        z, _ = refine_rows(z, bank, beta, 1)
    assert all(np.isfinite(energies))
    assert energies[-1] < energies[0]


def test_refine_returns_the_last_alpha(rng):
    """alpha after T steps is the retrieval at the state after T − 1 steps."""
    z = Tensor(rng.standard_normal((3, 1, 2)))
    beta = Tensor(np.array([0.4]))
    bank = two_slot_bank()
    for t in (1, 2, 3):
        before, _ = refine_rows(z, bank, beta, t - 1)
        want, _ = retrieve_rows(before, bank)
        _, alpha = refine_rows(z, bank, beta, t)
        np.testing.assert_array_equal(alpha.value, want.value)
    _, empty = refine_rows(z, MemoryBank(2, 4, 2), beta, 3)
    assert empty is None


def test_one_step_calls_compose_to_a_multi_step_call(rng):
    bank = MemoryBank(3, 9, 4)
    bank.write(rng.standard_normal((7, 4)), [0, 1, 2, 0, 1, 2, 0])
    beta = Tensor(np.array([0.35]))
    z0 = Tensor(rng.standard_normal((3, 2, 4)))
    whole, whole_alpha = refine_rows(z0, bank, beta, 4)
    z = z0
    for _ in range(4):
        z, alpha = refine_rows(z, bank, beta, 1)
    np.testing.assert_array_equal(z.value, whole.value)
    np.testing.assert_array_equal(alpha.value, whole_alpha.value)


def test_rows_refine_independently(rng):
    """Queries stacked one row per leading index match single-row runs bitwise."""
    bank = two_slot_bank()
    beta = Tensor(np.array([0.4]))
    zs = rng.standard_normal((3, 2))
    stacked, _ = refine_rows(Tensor(zs.reshape(3, 1, 2)), bank, beta, 2)
    for i in range(3):
        single, _ = refine_rows(Tensor(zs[i:i + 1]), bank, beta, 2)
        np.testing.assert_array_equal(stacked.value[i], single.value)


def test_fd_gradients_through_refinement(rng):
    bank = MemoryBank(2, 6, 3)
    bank.write(rng.standard_normal((6, 3)), np.arange(6) % 2)
    proj = Tensor(rng.standard_normal((3, 1)))
    for t in (1, 2, 3):
        z = Tensor(rng.standard_normal((2, 1, 3)))
        beta = Tensor(np.array([0.35]))

        def build():
            out, _ = refine_rows(z, bank, beta, t)
            return total(ad.matmul(out, proj))

        assert ad.check_gradients(build, [z, beta], step=1e-6) < 1e-6, f"T={t}"


def test_negative_steps_rejected():
    with pytest.raises(ValueError):
        refine_rows(Tensor(np.ones((1, 2))), two_slot_bank(), Tensor(np.array([0.2])), -1)


# ------------------------------------------------------------ variance probe

def test_probe_scaled_variance_near_one():
    for dim in (64, 256):
        raw, scaled = variance_probe(dim, 20000, seed=3)
        assert 0.8 <= scaled <= 1.2, f"dim={dim}: {scaled}"
        np.testing.assert_allclose(scaled, dim * raw, rtol=1e-12)


def test_probe_dim_one_dot_is_sign():
    raw, scaled = variance_probe(1, 20000, seed=0)
    assert abs(raw - 1.0) < 0.02
    assert abs(scaled - 1.0) < 0.02


def test_probe_deterministic_and_validated():
    a = variance_probe(32, 5000, seed=11)
    b = variance_probe(32, 5000, seed=11)
    assert a == b
    with pytest.raises(ValueError):
        variance_probe(32, 999)
