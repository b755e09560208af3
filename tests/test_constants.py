"""Derived constants: flat-matmul kernels, per-table and per-space caches."""

import dataclasses

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


# -- constants prepared once per admissible space ---------------------------

def leaves(value):
    """Every array and scalar inside a result, in a fixed order."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from leaves(getattr(value, field.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    elif isinstance(value, dict):
        for key in sorted(value):
            yield np.asarray(key)
            yield from leaves(value[key])
    else:
        yield np.asarray(value)


def assert_bit_equal(a, b):
    a, b = list(leaves(a)), list(leaves(b))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype != object
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def space_arrays(space):
    return [getattr(space, f.name) for f in dataclasses.fields(space)]


PLANE_CONSTANTS = (sp.so5_splitting, sp.adapted_triple, sp.triple_on_distribution)


def pipeline(space, nabla, a):
    """Everything that reads the per-space caches, for one datum."""
    rotated = sp.rotate_spinor_datum(a, nabla, space)
    return (sp.decompose(nabla, space), sp.omega_decompose(nabla, space),
            sp.intrinsic_torsion(nabla, space), rotated,
            sp.decompose(rotated, space), sp.structure_quadruplet(space))


def test_cache_hits_equal_misses_and_fresh_copies():
    for seed in range(20):
        rng = np.random.default_rng([6, seed])
        space = sp.random_admissible_space(rng)
        nabla = sp.random_nabla(space, rng)
        a = cl.random_unit_vector(rng, 4)
        first = pipeline(space, nabla, a)       # fills the caches
        second = pipeline(space, nabla, a)      # reads them
        fresh = pipeline(dataclasses.replace(space), nabla, a)
        assert_bit_equal(first, second)
        assert_bit_equal(first, fresh)
        for fn in PLANE_CONSTANTS:          # and the cache holds this plane's
            assert_bit_equal(fn(space), fn.__wrapped__(space, 1e-9))


def test_plane_constants_are_cached_per_eps(fundamental_space):
    space = fundamental_space
    for fn in PLANE_CONSTANTS:
        value = fn(space)
        assert fn(space) is value
        assert fn(space, 1e-9) is value
        other = fn(space, 1e-8)
        assert other is not value
        assert fn(space, 1e-8) is other
        assert fn(dataclasses.replace(space)) is not value


def test_spaces_and_cached_values_are_read_only(fundamental_space, rng):
    space = sp.random_admissible_space(rng)
    splitting = sp.so5_splitting(space)
    distribution = sp.triple_on_distribution(space)
    adapted = sp.adapted_triple(space)
    arrays = (space_arrays(space) + space_arrays(splitting)
              + space_arrays(distribution) + [op.matrix for op in adapted.ops()])
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, ...] = 0.0

    # The space holds copies, so writing to the caller's arrays changes nothing.
    mine = [arr.copy() for arr in space_arrays(fundamental_space)]
    copied = sp.AdmissibleSpace(*mine)
    for arr in mine:
        arr[0, ...] = 7.0
    assert_bit_equal(copied, fundamental_space)


def test_per_space_cache_follows_a_rebound_table(monkeypatch, rng):
    space = sp.random_admissible_space(rng)
    before = sp.adapted_triple(space)
    c = sp.charge_conjugation()

    monkeypatch.setattr(cl, "_GAMMA", rebound_table(negate_gamma_2))
    after = sp.adapted_triple(space)
    assert after is not before
    assert np.array_equal(sp.charge_conjugation(), -c)
    assert np.array_equal(after.k2.matrix, -before.k2.matrix)
    assert_bit_equal(after, sp.adapted_triple(dataclasses.replace(space)))

    monkeypatch.undo()
    assert_bit_equal(sp.adapted_triple(space), before)
