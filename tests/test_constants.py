"""Generator-derived constants: flat-matmul kernels and per-table caches."""

import numpy as np
import pytest

import spin5 as sp
import spin5.clifford as cl


def tensordot_vector_matrix(x):
    return np.tensordot(x, np.stack(cl._GAMMA), axes=1)


def tensordot_two_form_matrix_rep(w):
    products = np.stack([cl._GAMMA[i - 1] @ cl._GAMMA[j - 1]
                         for i, j in cl.TWO_FORM_PAIRS])
    return np.tensordot(w, products, axes=1)


def rebound_table(edit):
    """A copy of the generator table with edit applied to its copied arrays."""
    table = [g.copy() for g in cl._GAMMA]
    edit(table)
    return tuple(table)


def break_gamma_3(table):
    table[2][0, 0] = 0.5


def negate_gamma_2(table):
    table[1] *= -1


@pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
def test_flat_kernels_match_tensordot(rng, lead):
    for _ in range(50):
        x = rng.standard_normal(lead + (cl.DIM_V,))
        w = rng.standard_normal(lead + (cl.DIM_TWO_FORMS,))
        vm = cl.vector_matrix(x)
        tf = cl.two_form_matrix_rep(w)
        assert vm.shape == tf.shape == lead + (4, 4)
        assert np.array_equal(vm, tensordot_vector_matrix(x))
        assert np.array_equal(tf, tensordot_two_form_matrix_rep(w))


def test_constants_are_cached_and_read_only():
    assert cl.two_form_gamma_products() is cl.two_form_gamma_products()
    assert sp.charge_conjugation() is sp.charge_conjugation()
    for arr in (*cl._GAMMA, cl.two_form_gamma_products(),
                sp.charge_conjugation()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    assert cl.vector_matrix(cl.standard_vector(1)).flags.writeable


def test_constants_follow_a_rebound_table(monkeypatch):
    e3 = cl.standard_vector(3)
    products = cl.two_form_gamma_products().copy()
    e3_matrix = cl.vector_matrix(e3)
    c = sp.charge_conjugation().copy()

    bad = rebound_table(break_gamma_3)
    lawful = rebound_table(negate_gamma_2)
    monkeypatch.setattr(cl, "_GAMMA", bad)
    assert np.array_equal(cl.two_form_gamma_products(),
                          np.stack([bad[i - 1] @ bad[j - 1]
                                    for i, j in cl.TWO_FORM_PAIRS]))
    assert np.array_equal(cl.vector_matrix(e3), bad[2])
    with pytest.raises(sp.DerivationFailure):
        sp.charge_conjugation()

    # A table that still obeys the laws gives a different, accepted C.
    monkeypatch.setattr(cl, "_GAMMA", lawful)
    assert np.array_equal(sp.charge_conjugation(), -c)

    monkeypatch.undo()
    assert np.array_equal(cl.two_form_gamma_products(), products)
    assert np.array_equal(cl.vector_matrix(e3), e3_matrix)
    assert np.array_equal(sp.charge_conjugation(), c)
