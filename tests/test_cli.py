import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin5 as sp
import spin5.clifford as cl
from spin5 import cli, jsonio
from spin5 import su2 as su

ANALYZE_KEYS = {"spinor", "y", "d_basis", "v_basis", "phi_tilde",
                "su2_basis", "j_matrix", "hopf"}
DECOMPOSE_KEYS = {"phi", "s_matrix", "beta", "z", "f", "s_d", "beta_d",
                  "lambda0", "lambdas", "s0", "sigma", "residual",
                  "omega", "omega_zeta", "omega_d", "xi", "xi_su2_plus",
                  "xi_r4"}


def run(monkeypatch, capsys, argv, payload=None):
    if payload is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spinor_payload(phi):
    return {"spinor": jsonio.encode_spinor(phi)}


@pytest.fixture
def decompose_payload(fundamental_space, rng):
    nabla = sp.random_nabla(fundamental_space, rng)
    return {
        "phi": jsonio.encode_spinor(nabla.phi),
        "derivatives": [jsonio.encode_spinor(d) for d in nabla.derivatives],
        "v_basis": [jsonio.encode_spinor(v)
                    for v in fundamental_space.v_basis],
    }


def test_analyze_standard_spinor(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["analyze-spinor", "--json"],
                       spinor_payload(cl.standard_spinor(1)))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == ANALYZE_KEYS
    assert doc["y"] == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert np.allclose(doc["hopf"], [1.0, 0.0, 0.0])


def test_analyze_text_mode(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["analyze-spinor"],
                       spinor_payload(cl.standard_spinor(2)))
    assert code == 0
    assert "spinor" in out and "hopf" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_analyze_prints_the_frame_partner_spinor(monkeypatch, capsys):
    phi = cl.random_unit_spinor(np.random.default_rng(3))
    frame = sp.build_frame(phi)
    code, out, _ = run(monkeypatch, capsys, ["analyze-spinor", "--json"],
                       spinor_payload(phi))
    assert code == 0
    doc = json.loads(out)
    phi_tilde = jsonio.parse_spinor(doc["phi_tilde"])
    assert abs(cl.hermitian(phi_tilde, phi)) <= 1e-12
    y_action = cl.vector_matrix(jsonio.parse_vector(doc["y"])) @ phi_tilde
    assert np.linalg.norm(y_action - 1j * phi_tilde) <= 1e-12
    assert np.array_equal(phi_tilde, frame.phi_tilde)
    code, out, _ = run(monkeypatch, capsys, ["analyze-spinor"], spinor_payload(phi))
    assert code == 0
    assert f"phi_tilde   {cli._fmt_spinor(frame.phi_tilde)}\n" in out


def test_analyze_rejects_non_unit(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys,
                       ["analyze-spinor", "--json"],
                       spinor_payload(2.0 * cl.standard_spinor(1)))
    assert code == 3
    assert "--normalize" in err


def test_analyze_normalize(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["analyze-spinor", "--json", "--normalize"],
                       spinor_payload(2.0 * cl.standard_spinor(1)))
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["spinor"], jsonio.encode_spinor(
        cl.standard_spinor(1)))


def test_analyze_normalize_zero_spinor(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys,
                       ["analyze-spinor", "--normalize"],
                       spinor_payload(np.zeros(4)))
    assert code == 3
    assert "cannot normalize" in err


def test_malformed_json_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("{broken"))
    code = cli.main(["analyze-spinor"])
    _, err = capsys.readouterr().out, capsys.readouterr().err
    assert code == 2


def test_missing_field(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys, ["analyze-spinor"],
                       {"wrong": 1})
    assert code == 2
    assert "missing required field 'spinor'" in err


def test_file_input(monkeypatch, capsys, tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(spinor_payload(cl.standard_spinor(1))))
    code, out, _ = run(monkeypatch, capsys,
                       ["analyze-spinor", "--json", "--file", str(path)])
    assert code == 0
    assert set(json.loads(out)) == ANALYZE_KEYS


def test_file_missing(monkeypatch, capsys, tmp_path):
    code, _, err = run(monkeypatch, capsys,
                       ["analyze-spinor", "--file",
                        str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


def test_check_admissible_fundamental(monkeypatch, capsys):
    payload = {"basis": [jsonio.encode_spinor(cl.standard_spinor(3)),
                         jsonio.encode_spinor(cl.standard_spinor(4))]}
    code, out, _ = run(monkeypatch, capsys,
                       ["check-admissible", "--json"], payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["spanning_test"] is True
    assert doc["conjugation_test"] is True
    assert doc["max_spanning_residual"] <= 1e-9


def test_check_admissible_random_plane(monkeypatch, capsys, rng):
    a = cl.random_unit_spinor(rng)
    b = cl.random_unit_spinor(rng)
    payload = {"basis": [jsonio.encode_spinor(a), jsonio.encode_spinor(b)]}
    code, out, _ = run(monkeypatch, capsys,
                       ["check-admissible", "--json"], payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert doc["spanning_test"] == doc["conjugation_test"]


def test_check_admissible_degenerate(monkeypatch, capsys):
    s3 = cl.standard_spinor(3)
    payload = {"basis": [jsonio.encode_spinor(s3),
                         jsonio.encode_spinor(1j * s3)]}
    code, _, err = run(monkeypatch, capsys, ["check-admissible"], payload)
    assert code == 2
    assert "input error" in err


def test_decompose_json_schema(monkeypatch, capsys, decompose_payload):
    code, out, _ = run(monkeypatch, capsys,
                       ["decompose-torsion", "--json"], decompose_payload)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == DECOMPOSE_KEYS
    assert doc["residual"] <= 1e-9
    assert np.array(doc["s_matrix"]).shape == (4, 5)
    assert np.array(doc["beta"]).shape == (3, 5)
    assert len(doc["omega"]) == 5
    assert len(doc["sigma"]) == 3


def test_decompose_rotate_block(monkeypatch, capsys, decompose_payload):
    code, out, _ = run(monkeypatch, capsys,
                       ["decompose-torsion", "--json",
                        "--rotate", "0.5,0.5,0.5,0.5"],
                       decompose_payload)
    assert code == 0
    doc = json.loads(out)
    rot = doc["rotation"]
    assert rot["quaternion"] == [0.5, 0.5, 0.5, 0.5]
    assert rot["s_max_delta"] <= 1e-9
    assert rot["omega_max_delta"] <= 1e-9
    assert rot["beta_max_delta"] <= 1e-9
    observed = np.array(rot["beta_observed"])
    predicted = np.array(rot["beta_predicted"])
    assert np.abs(observed - predicted).max() <= 1e-9
    assert np.abs(observed - np.array(doc["beta"])).max() > 1e-3


def test_decompose_rotate_negative_first_component(monkeypatch, capsys,
                                                   decompose_payload):
    outputs = []
    for argv in (["--rotate", "-0.6,0.8,0,0"], ["--rotate=-0.6,0.8,0,0"]):
        code, out, _ = run(monkeypatch, capsys,
                           ["decompose-torsion", "--json"] + argv,
                           decompose_payload)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["rotation"]["quaternion"] == [-0.6, 0.8, 0.0, 0.0]


@pytest.mark.parametrize("raw", ["nan,0,0,0", "1,inf,0,0"])
def test_decompose_rotate_non_finite(monkeypatch, capsys, decompose_payload, raw):
    code, _, err = run(monkeypatch, capsys,
                       ["decompose-torsion", "--rotate", raw], decompose_payload)
    assert code == 2
    assert "finite" in err


def test_decompose_rotate_bad_argument(monkeypatch, capsys,
                                       decompose_payload):
    code, _, err = run(monkeypatch, capsys,
                       ["decompose-torsion", "--rotate", "1,0,0"],
                       decompose_payload)
    assert code == 2
    assert "four comma-separated numbers" in err


def test_decompose_rotate_non_unit(monkeypatch, capsys, decompose_payload):
    code, _, err = run(monkeypatch, capsys,
                       ["decompose-torsion", "--rotate", "1,1,0,0"],
                       decompose_payload)
    assert code == 3


def test_verify_all_passes(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["verify-all", "--json", "--samples", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert len(doc["checks"]) == 43


def test_verify_all_text(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys,
                       ["verify-all", "--samples", "2"])
    assert code == 0
    assert "43 checks" in out


def test_verify_all_deterministic_bytes(monkeypatch, capsys):
    _, first, _ = run(monkeypatch, capsys,
                      ["verify-all", "--json", "--samples", "2",
                       "--seed", "3"])
    _, second, _ = run(monkeypatch, capsys,
                       ["verify-all", "--json", "--samples", "2",
                        "--seed", "3"])
    assert first == second
    _, other, _ = run(monkeypatch, capsys,
                      ["verify-all", "--json", "--samples", "2",
                       "--seed", "4"])
    assert other != first


def test_verify_all_detects_tampering(monkeypatch, capsys):
    bad = list(cl._GAMMA)
    bad[2] = bad[2].copy()
    bad[2][0, 0] = 0.5
    monkeypatch.setattr(cl, "_GAMMA", tuple(bad))
    code, out, _ = run(monkeypatch, capsys,
                       ["verify-all", "--json", "--samples", "2"])
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["fail"] > 0


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_all_rejects_samples_below_one(monkeypatch, capsys, samples):
    code, out, err = run(monkeypatch, capsys,
                         ["verify-all", "--json", "--samples", samples])
    assert code == 2
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_analyze_rejects_non_finite_entries(monkeypatch, capsys, value):
    payload = {"spinor": [[value, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    code, out, err = run(monkeypatch, capsys, ["analyze-spinor"], payload)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_eps_env_override(monkeypatch, capsys):
    monkeypatch.setenv("SPIN5_EPS", "1e-6")
    code, _, _ = run(monkeypatch, capsys, ["analyze-spinor", "--json"],
                     spinor_payload(cl.standard_spinor(1)))
    assert code == 0


def test_eps_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("SPIN5_EPS", "bogus")
    code, _, err = run(monkeypatch, capsys, ["analyze-spinor"],
                       spinor_payload(cl.standard_spinor(1)))
    assert code == 2
    assert "SPIN5_EPS" in err


def test_eps_flag_out_of_range(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys,
                       ["analyze-spinor", "--eps", "2.0"],
                       spinor_payload(cl.standard_spinor(1)))
    assert code == 2
    assert "--eps" in err


HUGE_INTEGER_PAYLOAD = ('{"spinor": [[1' + "0" * 5000
                        + ', 0], [0, 0], [0, 0], [0, 0]]}')


@pytest.mark.parametrize("text", [HUGE_INTEGER_PAYLOAD, "[" * 100000],
                         ids=["huge-integer", "deep-nesting"])
def test_unparseable_payload_is_input_error(monkeypatch, capsys, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.main(["analyze-spinor"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "invalid JSON" in captured.err


@pytest.mark.parametrize("value", ["0.9", "1e-300"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_eps_outside_working_range(monkeypatch, capsys, value, via):
    argv = ["analyze-spinor"]
    if via == "flag":
        argv += ["--eps", value]
    else:
        monkeypatch.setenv("SPIN5_EPS", value)
    code, out, err = run(monkeypatch, capsys, argv,
                         spinor_payload(cl.standard_spinor(1)))
    assert code == 2
    assert out == ""
    assert ("--eps" if via == "flag" else "SPIN5_EPS") in err


@pytest.mark.parametrize("value", ["1e-13", "1e-2"])
def test_eps_range_ends_accepted(monkeypatch, capsys, value):
    code, _, _ = run(monkeypatch, capsys, ["analyze-spinor", "--eps", value],
                     spinor_payload(cl.standard_spinor(1)))
    assert code == 0


def test_analyze_normalize_huge_entries(monkeypatch, capsys):
    phi = np.array([3e200, 4e200j, 0.0, 0.0])
    code, out, _ = run(monkeypatch, capsys,
                       ["analyze-spinor", "--json", "--normalize"],
                       spinor_payload(phi))
    assert code == 0
    assert np.allclose(json.loads(out)["spinor"],
                       jsonio.encode_spinor([0.6, 0.8j, 0.0, 0.0]))


def test_analyze_normalize_rejects_norm_below_sqrt_eps(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys,
                       ["analyze-spinor", "--normalize"],
                       spinor_payload(1e-6 * cl.standard_spinor(1)))
    assert code == 3
    assert "cannot normalize" in err


def decompose_in_subprocess(tmp_path, payload):
    """spin5 decompose-torsion --json in a fresh process, so warnings show."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "SPIN5_EPS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "spin5.cli", "decompose-torsion", "--json",
         "--file", str(path)],
        capture_output=True, text=True, env=env, timeout=300)


def test_decompose_huge_phi_entry_fails_cleanly(tmp_path):
    """A 1e300 entry is a non-unit spinor: exit 3 with one line, no warning."""
    payload = {"phi": [[1e300, 0.0], [0, 0], [0, 0], [0, 0]],
               "derivatives": [ZERO] * 5, "v_basis": [S[2], S[3]]}
    proc = decompose_in_subprocess(tmp_path, payload)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("spin5: base spinor norm is 1.000e+300, "
                           "expected 1\n")


@pytest.mark.parametrize("entry, code", [(1e160, 0), (1e300, 3)])
def test_decompose_huge_derivative_entry_warns_nothing(tmp_path, entry, code):
    """Overflowing norms of a derivative neither warn nor slip past a guard.

    1e160 squares past the float range but is a valid datum; at 1e300 the
    solve residual itself overflows to inf and fails its guard.
    """
    derivative = [[0.0, 0.0], [entry, 0.0], [0.0, 0.0], [0.0, 0.0]]
    payload = {"phi": S[0], "derivatives": [ZERO, derivative, ZERO, ZERO, ZERO],
               "v_basis": [S[2], S[3]]}
    proc = decompose_in_subprocess(tmp_path, payload)
    assert proc.returncode == code
    assert "RuntimeWarning" not in proc.stderr
    if code == 0:
        assert proc.stderr == ""
        assert set(json.loads(proc.stdout)) == DECOMPOSE_KEYS
    else:
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("spin5: ")


def test_stray_linalg_error_exits_3(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(su, "space_of_spinor", diverge)
    code, out, err = run(monkeypatch, capsys, ["analyze-spinor", "--json"],
                         spinor_payload(cl.standard_spinor(1)))
    assert code == 3
    assert out == ""
    assert err == "spin5: numerical failure: SVD did not converge\n"


# Numbers that reach every branch: valid unit entries, non-unit, non-finite,
# huge and integer values.  Each field may also keep a valid value, so that
# payloads that are right but for one field get through to the numerics.
NUMBERS = (st.sampled_from([0, 1, -1, 0.5, 0.6, 0.8, 1e300])
           | st.floats() | st.integers(-10**6, 10**6))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24)
S = [jsonio.encode_spinor(cl.standard_spinor(k)) for k in range(1, 5)]
ZERO = jsonio.encode_spinor(np.zeros(4))


def spinor_like(valid):
    pair = st.lists(NUMBERS, min_size=2, max_size=2)
    return (st.just(valid) | st.sampled_from(S)
            | st.lists(pair, min_size=4, max_size=4) | JSON_VALUES)


def spinor_list_like(valid):
    return (st.just(valid)
            | st.lists(spinor_like(valid[0]), min_size=len(valid),
                       max_size=len(valid))
            | JSON_VALUES)


PAYLOADS = {
    "analyze-spinor": st.fixed_dictionaries({"spinor": spinor_like(S[0])}),
    "check-admissible": st.fixed_dictionaries(
        {"basis": spinor_list_like([S[2], S[3]])}),
    "decompose-torsion": st.fixed_dictionaries({
        "phi": spinor_like(S[0]), "derivatives": spinor_list_like([ZERO] * 5),
        "v_basis": spinor_list_like([S[2], S[3]])}),
}


def run_isolated(argv, text):
    """cli.main on a stdin text, outside pytest's capture fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(PAYLOADS))
def test_fuzzed_payloads_keep_the_exit_contract(command):
    @settings(max_examples=60, deadline=None)
    @given(payload=PAYLOADS[command] | JSON_VALUES,
           normalize=st.booleans())
    def check(payload, normalize):
        argv = [command, "--json"]
        if normalize and command == "analyze-spinor":
            argv.append("--normalize")
        code, err = run_isolated(argv, json.dumps(payload))
        assert code in (0, 2, 3)
        assert "Traceback" not in err

    check()
