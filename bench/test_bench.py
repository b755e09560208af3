"""Tests of the benchmark itself: oracles, counting and the tail helper.

    PYTHONPATH=src:bench python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import spin5  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleError  # noqa: E402


@pytest.fixture(scope="module")
def laws():
    return oracles.Laws(np.stack([spin5.gamma(k) for k in range(1, 6)]))


@pytest.fixture(scope="module")
def frame(laws):
    rng = np.random.default_rng(7)
    phi = workloads.haar_spinor(rng)
    space = spin5.space_of_spinor(phi)
    j = spin5.complex_structure(phi, space)
    point = spin5.hopf(*spin5.hopf_coordinates(phi, space))
    derivs = workloads.tangent_derivatives(phi, rng)
    nabla = spin5.NablaDatum(phi=phi, derivatives=derivs)
    dec = spin5.decompose(nabla, space)
    js = laws.triple(space.vperp_basis[0], space.vperp_basis[1],
                     space.d_basis)
    return phi, space, j, point, nabla, dec, js


def _bump(a, index, by):
    a = np.array(a, dtype=float)
    a[index] += by
    return a


# -- oracles accept the program's output and reject perturbed copies ----------

def test_oracles_accept_program_output(laws, frame):
    phi, space, j, point, nabla, dec, js = frame
    laws.check_frame(phi, space.y, space.d_basis, j, point,
                     v_basis=space.v_basis)
    laws.check_datum(phi, nabla.derivatives, dec.s_matrix, dec.beta,
                     space.d_basis, space.y, dec.z, dec.f)
    laws.check_split(dec.s_d, dec.lambda0, dec.lambdas, dec.s0, dec.sigma,
                     js)


def test_reeb_oracle_rejects_y_off_by_1e6(laws, frame):
    phi, space, *_ = frame
    laws.check_reeb(phi, space.y)
    with pytest.raises(OracleError, match="closed form"):
        laws.check_reeb(phi, _bump(space.y, 0, 1e-6))


def test_text_tolerance_takes_six_decimals_only(laws, frame):
    phi, space, *_ = frame
    printed = np.round(space.y, 6)
    laws.check_reeb(phi, printed, tol=oracles.TEXT_TOL)
    with pytest.raises(OracleError):
        laws.check_reeb(phi, _bump(printed, 2, 3e-6), tol=oracles.TEXT_TOL)


def test_frame_oracle_rejects_a_j_that_is_not_complex(laws, frame):
    phi, space, j, point, *_ = frame
    bad = j + 1e-6 * np.eye(4)
    with pytest.raises(OracleError, match="J\\^2 = -I"):
        laws.check_frame(phi, space.y, space.d_basis, bad, point)
    with pytest.raises(OracleError, match="Hopf"):
        laws.check_frame(phi, space.y, space.d_basis, j,
                         1.001 * np.array(point))


def test_frame_oracle_rejects_the_opposite_structure(laws, frame):
    phi, space, j, point, *_ = frame
    with pytest.raises(OracleError, match="J\\(x\\)"):
        laws.check_frame(phi, space.y, space.d_basis, -j, point)


def test_datum_oracle_rejects_perturbed_beta_and_s(laws, frame):
    phi, space, _, _, nabla, dec, _ = frame
    args = (phi, nabla.derivatives)
    with pytest.raises(OracleError, match="rebuilt derivative"):
        laws.check_datum(*args, dec.s_matrix, _bump(dec.beta, (1, 2), 1e-6),
                         space.d_basis, space.y)
    with pytest.raises(OracleError, match="rebuilt derivative"):
        laws.check_datum(*args, _bump(dec.s_matrix, (0, 0), 1e-6), dec.beta,
                         space.d_basis, space.y)


def test_frame_free_datum_oracle(laws, frame):
    phi, space, _, _, nabla, dec, _ = frame
    d = laws.check_datum_frame_free(phi, nabla.derivatives, dec.s_matrix,
                                    dec.beta, space.y)
    np.testing.assert_allclose(np.abs(d @ space.d_basis.T), np.eye(4),
                               atol=1e-9)
    with pytest.raises(OracleError):
        laws.check_datum_frame_free(phi, nabla.derivatives,
                                    _bump(dec.s_matrix, (3, 1), 1e-6),
                                    dec.beta, space.y)


def test_split_oracles_reject_a_broken_law(laws, frame):
    *_, dec, js = frame
    sigma = np.array(dec.sigma)
    sigma[0] += 1e-6 * js[1]
    with pytest.raises(OracleError):
        laws.check_split(dec.s_d, dec.lambda0, dec.lambdas, dec.s0, sigma, js)
    laws.check_split_frame_free(dec.s_d, dec.lambda0, dec.lambdas, dec.s0,
                                dec.sigma, js)
    with pytest.raises(OracleError, match="s0"):
        laws.check_split_frame_free(dec.s_d, dec.lambda0, dec.lambdas,
                                    dec.s0 + 1e-6 * js[2], dec.sigma, js)


def test_torsion_form_oracles(laws, frame):
    phi, space, _, _, nabla, dec, _ = frame
    om = spin5.omega_decompose(nabla, space)
    xi = spin5.intrinsic_torsion(nabla, space)
    laws.check_omega(phi, dec.beta, om.omega, om.omega_zeta, space.y)
    laws.check_intrinsic(phi, nabla.derivatives, xi.xi)
    with pytest.raises(OracleError, match="xi_3"):
        laws.check_intrinsic(phi, nabla.derivatives,
                             _bump(xi.xi, (2, 4), 1e-6))
    with pytest.raises(OracleError, match="omega_y"):
        laws.check_omega(phi, dec.beta, om.omega,
                         _bump(om.omega_zeta, 0, 1e-6), space.y)


def test_rotation_oracle(laws, frame):
    phi, space, _, _, nabla, dec, _ = frame
    a = workloads.unit_quaternion(np.random.default_rng(3))
    rotated = spin5.rotate_spinor_datum(a, nabla, space)
    dec_r = spin5.decompose(rotated, space)
    laws.check_rotation(a, dec.beta, dec_r.beta, dec.s_matrix, dec_r.s_matrix)
    conj = a * np.array([1, -1, -1, -1])
    with pytest.raises(OracleError, match="R\\(a\\)"):
        laws.check_rotation(conj, dec.beta, dec_r.beta)


def test_registry_oracle():
    ids = run.VERIFY_IDS
    notes = {"02", "10", "19", "34"}
    healthy = [(cid, "NOTE" if cid[:2] in notes else "PASS") for cid in ids]
    oracles.check_registry(healthy)
    with pytest.raises(OracleError, match="FAIL"):
        oracles.check_registry([(cid, "FAIL" if cid.startswith("13") else s)
                                for cid, s in healthy])
    with pytest.raises(OracleError, match="NOTE"):
        oracles.check_registry([(cid, "PASS") for cid, _ in healthy])
    with pytest.raises(OracleError, match="42 checks"):
        oracles.check_registry(healthy[:-1])


def test_laws_refuse_a_broken_generator_table():
    table = np.stack([spin5.gamma(k) for k in range(1, 6)])
    table[2] = -table[3]
    with pytest.raises(OracleError, match="Clifford relation"):
        oracles.Laws(table)


# -- generators ---------------------------------------------------------------

def test_generated_planes_and_spinors_obey_their_construction(laws):
    rng = np.random.default_rng(11)
    y = workloads.tie_vector(rng)
    assert sorted(np.abs(y))[-2:] == [pytest.approx(2 ** -0.5)] * 2
    phi = workloads.spinor_with_reeb(laws, y)
    np.testing.assert_allclose(laws.reeb(phi), y, atol=1e-12)
    basis = workloads.plane_spanning_set(laws, y, rng)
    assert spin5.is_admissible(basis).verdict
    space = spin5.admissible_space(basis)
    np.testing.assert_allclose(space.y, y, atol=1e-9)


def test_inputs_depend_on_the_seed_only(laws, tmp_path):
    def first_request(seed):
        cli = workloads.CliOneshot(laws, seed, tmp_path)
        return [op.kind for op in cli.round(0)], \
            (tmp_path / "payload-4.json").read_text()
    assert first_request(5) == first_request(5)
    assert first_request(5)[1] != first_request(6)[1]


# -- counting -----------------------------------------------------------------

class _FakeWorkload:
    """Rounds of three ops; the second fails and the third breaks a law."""

    def __init__(self):
        self.host = worker.HostReference()

    def round(self, r):
        def fail():
            raise workloads.OpFailed("refused")

        def wrong(_):
            raise OracleError("broken law")

        return [workloads.Op("ok", lambda: r, lambda out: None),
                workloads.Op("fails", fail, lambda out: None),
                workloads.Op("wrong", lambda: r, wrong)]


def test_run_phase_counts_whole_rounds():
    stats = worker.run_phase(_FakeWorkload(), 0.0, 1)
    assert (stats["attempted"], stats["failed"]) == (3, 1)
    assert len(stats["latencies"]) == 2
    assert stats["errors"] == ["wrong: OracleError: broken law"]
    assert stats["next_round"] == 2
    stats = worker.run_phase(_FakeWorkload(), 0.001, 1)
    assert stats["attempted"] % 3 == 0
    assert stats["failed"] * 3 == stats["attempted"]


def test_cli_rounds_fail_the_same_share_for_every_seed(laws, tmp_path):
    for seed in (0, 1, 2, 99):
        cli = workloads.CliOneshot(laws, seed, tmp_path)
        for r in range(3):
            ops = cli.round(r)
            assert len(ops) == 12
            quaternions = [op for op in ops if op.kind == "rotate"]
            assert len(quaternions) == 4
    args = []
    cli.tracer = None
    cli._spawn = lambda argv, stdin: args.append(argv)
    for op in cli.round(0):
        op.run()
    rotations = [a[a.index("--rotate") + 1] for a in args if "--rotate" in a]
    negative = [q for q in rotations if q.startswith("-")]
    assert negative == ["-0.6,0.8,0.0,0.0", "-0.5,0.5,0.5,0.5"]
    assert all(not q.startswith("-") for q in rotations[:2])


# -- metrics helpers ----------------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 99) == 99
    assert run.percentile(samples, 100) == 100
    assert run.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_tail_leaves_ten_samples_beyond():
    assert run.beyond(1000, 99) == 10
    assert run.beyond(999, 99) == 9
    assert run.beyond(500, 98) == 10
    assert run.beyond(40, 75) == 10


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.TAIL_PERCENTILE)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert spec["paths"] == ["bench"]


def test_tracer_wraps_every_binding_and_attributes_self_time():
    spans = tracer.Tracer()
    originals = {name: getattr(spin5, name) for name in
                 ("decompose", "adapted_triple", "charge_conjugation")}
    try:
        assert spans.install() > len(tracer.SPAN_NAMES)
        assert (spin5.torsion.adapted_triple
                is spin5.quaternionic.adapted_triple)
        rng = np.random.default_rng(1)
        space = spin5.space_of_spinor(workloads.haar_spinor(rng))
        begin = len(spans)
        phi = space.vperp_basis[0]
        spin5.decompose(spin5.NablaDatum(
            phi=phi, derivatives=workloads.tangent_derivatives(phi, rng)),
            space)
        names = [tracer.SPAN_NAMES[spans.names[k]]
                 for k in range(begin, len(spans))]
        assert names[0] == "torsion.decompose"
        assert "quaternionic.adapted_triple" in names
        parents = [spans.parents[k] for k in range(begin, len(spans))]
        assert parents[0] == -1 and all(p >= begin for p in parents[1:])
        totals = spans.totals()
        calls, self_ns = totals["torsion.decompose"]
        whole = spans.ends[begin] - spans.starts[begin]
        assert calls == 1 and 0 < self_ns < whole
    finally:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("spin5"):
                for attr, value in list(vars(module).items()):
                    original = getattr(value, "__wrapped__", None)
                    if original is not None and callable(value):
                        setattr(module, attr, original)
        assert spin5.decompose is originals["decompose"]
