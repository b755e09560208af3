import numpy as np
import pytest

from spin5 import InputError, jsonio


def test_complex_roundtrip():
    z = 1.5 - 2.25j
    assert jsonio.parse_complex(jsonio.encode_complex(z)) == z


def test_spinor_roundtrip(rng):
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    back = jsonio.parse_spinor(jsonio.encode_spinor(phi))
    assert np.array_equal(back, phi)


def test_vector_roundtrip(rng):
    v = rng.normal(size=5)
    assert np.array_equal(jsonio.parse_vector(jsonio.encode_vector(v)), v)


def test_two_form_roundtrip(rng):
    w = rng.normal(size=10)
    assert np.array_equal(jsonio.parse_two_form(jsonio.encode_two_form(w)), w)


def test_matrix_encoders(rng):
    m = rng.normal(size=(3, 5))
    assert np.array_equal(np.array(jsonio.encode_real_matrix(m)), m)


@pytest.mark.parametrize("bad", [None, 3, [1, 2, 3], [[1, 2]] * 3,
                                 [[float("nan"), 0]] + [[0, 0]] * 3,
                                 [[1, float("inf")]] + [[0, 0]] * 3,
                                 [[0, 0]] * 3 + [[float("-inf"), 0]],
                                 [[10 ** 400, 0]] + [[0, 0]] * 3])
def test_parse_spinor_rejects_bad_shapes(bad):
    with pytest.raises(InputError, match="spinor"):
        jsonio.parse_spinor(bad)


def test_parse_rejects_bool_as_number():
    with pytest.raises(InputError, match="expected a number"):
        jsonio.parse_vector([0.0, True, 0.0, 0.0, 0.0])


def test_parse_vector_wrong_length():
    with pytest.raises(InputError, match="field 'vector'"):
        jsonio.parse_vector([1.0, 2.0])


def test_parse_errors_name_the_field():
    with pytest.raises(InputError, match="field 'phi'"):
        jsonio.parse_spinor("nope", field="phi")
    with pytest.raises(InputError, match=r"derivatives\[1\]"):
        jsonio.parse_spinor_list([[[0, 0]] * 4, "bad"], 2, "derivatives")


def test_parse_spinor_list_count():
    one = [[[1, 0], [0, 0], [0, 0], [0, 0]]]
    assert jsonio.parse_spinor_list(one, 1, "basis").shape == (1, 4)
    with pytest.raises(InputError, match="exactly 2 spinors"):
        jsonio.parse_spinor_list(one, 2, "basis")


def test_load_payload_errors():
    with pytest.raises(InputError, match="invalid JSON"):
        jsonio.load_payload("{not json")
    with pytest.raises(InputError, match="top level"):
        jsonio.load_payload("[1, 2]")
    assert jsonio.load_payload('{"a": 1}') == {"a": 1}


def test_get_field():
    assert jsonio.get_field({"a": 1}, "a") == 1
    with pytest.raises(InputError, match="missing required field 'b'"):
        jsonio.get_field({"a": 1}, "b")


def test_dumps_deterministic():
    first = jsonio.dumps({"b": 1, "a": [1.0, 2.0]})
    second = jsonio.dumps({"a": [1.0, 2.0], "b": 1})
    assert first == second
    assert first.endswith("\n")
    assert first.index('"a"') < first.index('"b"')
