"""Retrieval and refinement against hand-derived closed forms.

The two-slot numbers below were frozen from a 50-digit computation of
softmax(sqrt(2) * [1, 0]) and the resulting convex slot mixture; the
tests compare at 1e-12.
"""

import numpy as np
import pytest

import hmn.autodiff as ad
from hmn.autodiff import Tensor
from hmn.memory import MemoryBank
from hmn.retrieval import (RefinementTrace, energy, refine, refine_rows,
                           retrieve, retrieve_rows, variance_probe)

ALPHA_2SLOT = np.array([0.8044296825069569051929726, 0.1955703174930430948070274])
M_2SLOT = np.array([0.8044296825069569051929726, 0.5867109524791292844210822])
REFINED_2SLOT = np.array([1.760885936501391381038595, 0.1173421904958258568842164])


def two_slot_bank():
    bank = MemoryBank(2, 2, 2)
    bank.write(np.array([1.0, 0.0]), 0)
    bank.write(np.array([0.0, 3.0]), 1)
    return bank


def test_single_slot_full_weight(rng):
    bank = MemoryBank(1, 1, 4)
    v = rng.standard_normal(4)
    bank.write(v, 0)
    res = retrieve(rng.standard_normal(4), bank)
    assert res.alpha.shape == (1,)
    assert res.alpha[0] == 1.0
    np.testing.assert_array_equal(res.m, v)


def test_two_slot_oracle():
    res = retrieve(np.array([2.0, 0.0]), two_slot_bank())
    np.testing.assert_allclose(res.alpha, ALPHA_2SLOT, rtol=1e-12)
    np.testing.assert_allclose(res.m, M_2SLOT, rtol=1e-12)
    assert list(res.top_indices) == [0, 1]


def test_refine_one_step_oracle():
    out, trace = refine(np.array([2.0, 0.0]), two_slot_bank(), Tensor(np.array([0.2])), 1)
    np.testing.assert_allclose(out, REFINED_2SLOT, rtol=1e-12)
    assert len(trace.states) == 2 and len(trace.errors) == 1
    np.testing.assert_array_equal(trace.states[0], [2.0, 0.0])
    np.testing.assert_allclose(trace.states[1], REFINED_2SLOT, rtol=1e-12)


def test_empty_bank_returns_query(rng):
    bank = MemoryBank(2, 4, 3)
    z = rng.standard_normal(3)
    res = retrieve(z, bank)
    np.testing.assert_array_equal(res.m, z)
    assert res.alpha.size == 0 and res.top_indices.size == 0
    out, trace = refine(z, bank, Tensor(np.array([0.5])), 2)
    np.testing.assert_array_equal(out, z)
    assert trace.alphas == [None, None]


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
        for i, v in enumerate(vecs):
            bank.write(c * v, i % 2)
        m_by_scale[c] = retrieve(z, bank).m
    np.testing.assert_allclose(m_by_scale[5.0], 5.0 * m_by_scale[1.0], rtol=1e-12)


def test_ties_rank_lower_slot_first(rng):
    bank = MemoryBank(2, 2, 3)
    v = rng.standard_normal(3)
    bank.write(v, 0)
    bank.write(v, 1)
    res = retrieve(rng.standard_normal(3), bank)
    assert res.alpha[0] == res.alpha[1]
    assert list(res.top_indices) == [0, 1]


def test_query_shape_validation(rng):
    bank = two_slot_bank()
    with pytest.raises(ValueError):
        retrieve(np.ones(3), bank)
    with pytest.raises(ValueError):
        retrieve_rows(Tensor(np.ones((2, 3))), bank)


# ------------------------------------------------------------------ refining

def test_refine_zero_steps_is_identity(rng):
    z = Tensor(rng.standard_normal((3, 2)))
    out, alpha, trace = refine_rows(z, two_slot_bank(), Tensor(np.array([0.7])), 0)
    assert out is z and alpha is None and trace is None


def test_refine_zero_beta_matches_zero_steps(rng):
    z = rng.standard_normal((3, 2))
    bank = two_slot_bank()
    out0, alpha, _ = refine_rows(Tensor(z), bank, Tensor(np.array([0.0])), 3)
    np.testing.assert_array_equal(out0.value, z)
    assert alpha is None  # the bank is never read


def test_one_step_error_shrinks_by_one_minus_beta(rng):
    """With the retrieved target held fixed, ‖z' − m‖ = |1−β|·‖z − m‖."""
    bank = two_slot_bank()
    z = np.array([2.0, 0.0])
    m0 = retrieve(z, bank).m
    e0 = energy(z, m0)
    for beta in (0.2, 0.5, 1.0, 1.5):
        out, _, _ = refine_rows(Tensor(z.reshape(1, -1)), bank, Tensor(np.array([beta])), 1)
        got = energy(out.value[0], m0)
        want = (1.0 - beta) ** 2 * e0
        assert abs(got - want) <= 1e-12 * max(e0, 1.0), f"beta={beta}"


def test_energy_basics():
    assert energy(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert energy(np.array([0.0]), np.array([2.0])) == 2.0
    with pytest.raises(ValueError):
        energy(np.ones(2), np.ones(3))


def test_trace_energies_decrease_near_attractor():
    out, trace = refine(np.array([2.0, 0.0]), two_slot_bank(), Tensor(np.array([0.5])), 8)
    assert len(trace.energies) == 8
    assert all(np.isfinite(trace.energies))
    assert trace.energies[-1] < trace.energies[0]


def test_trace_shapes():
    z = np.zeros((2, 2))
    z[0, 0] = 1.0
    z[1, 1] = 1.0
    out, alpha, trace = refine_rows(Tensor(z), two_slot_bank(), Tensor(np.array([0.3])), 3,
                                    record_trace=True)
    assert len(trace.states) == 4
    assert len(trace.errors) == len(trace.energies) == len(trace.alphas) == 3
    assert trace.alphas[0].shape == (2, 2)
    assert trace.energies[0].shape == (2,)


def test_refine_returns_the_last_alpha(rng):
    """The returned weights are the trace's last alpha, with or without a trace."""
    z = rng.standard_normal((3, 2))
    beta = Tensor(np.array([0.4]))
    _, alpha, trace = refine_rows(Tensor(z), two_slot_bank(), beta, 3, groups=3,
                                  record_trace=True)
    _, untraced, none = refine_rows(Tensor(z), two_slot_bank(), beta, 3, groups=3)
    assert none is None
    np.testing.assert_array_equal(alpha, trace.alphas[-1])
    np.testing.assert_array_equal(untraced, trace.alphas[-1])
    _, empty, _ = refine_rows(Tensor(z), MemoryBank(2, 4, 2), beta, 3)
    assert empty is None


def test_rows_refine_independently(rng):
    """Stacked queries with per-row groups match single-row runs bitwise."""
    bank = two_slot_bank()
    beta = Tensor(np.array([0.4]))
    zs = rng.standard_normal((3, 2))
    stacked, _, _ = refine_rows(Tensor(zs), bank, beta, 2, groups=3)
    for i in range(3):
        single, _, _ = refine_rows(Tensor(zs[i:i + 1]), bank, beta, 2, groups=1)
        np.testing.assert_array_equal(stacked.value[i], single.value[0])


def test_fd_gradients_through_refinement(rng):
    bank = MemoryBank(2, 6, 3)
    for i in range(6):
        bank.write(rng.standard_normal(3), i % 2)
    proj = Tensor(rng.standard_normal((3, 1)))
    for t in (1, 2, 3):
        z = Tensor(rng.standard_normal((2, 3)))
        beta = Tensor(np.array([0.35]))

        def build():
            out, _, _ = refine_rows(z, bank, beta, t, groups=2)
            return ad.sum_all(ad.matmul(out, proj))

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
