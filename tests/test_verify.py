import contextlib
import hashlib
import json
import math
import signal

import numpy as np
import pytest

import spin5.clifford as cl
import spin5.numerics as nx
from spin5 import jsonio, verify

EXPECTED_NOTES = {
    "02-clifford-volume",
    "10-frames-eigenspace-labels",
    "19-su2-action-targets",
    "34-spin-conjugation-direction",
}


def test_check_ids_sorted_unique():
    ids = verify.check_ids()
    assert len(ids) == 43
    assert list(ids) == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_registry_claims_nonempty():
    for check_id, claim, fn in verify.REGISTRY:
        assert claim
        assert callable(fn)
        assert check_id == check_id.strip().lower()


@pytest.fixture(scope="module")
def healthy_report():
    return verify.run_checks(seed=0, samples=5)


def test_healthy_run_has_no_failures(healthy_report):
    assert healthy_report.ok()
    counts = healthy_report.counts
    assert counts["FAIL"] == 0
    assert counts["PASS"] + counts["NOTE"] == 43


def test_expected_note_set(healthy_report):
    notes = {r.check_id for r in healthy_report.results
             if r.status == "NOTE"}
    assert notes == EXPECTED_NOTES


def test_results_sorted_and_complete(healthy_report):
    ids = [r.check_id for r in healthy_report.results]
    assert ids == list(verify.check_ids())
    for r in healthy_report.results:
        assert r.samples_used >= 0
        assert r.elapsed >= 0.0


def test_json_dict_schema(healthy_report):
    doc = healthy_report.to_json_dict()
    assert set(doc) == {"eps", "seed", "samples", "checks", "summary"}
    assert doc["samples"] == 5
    assert len(doc["checks"]) == 43
    for entry in doc["checks"]:
        assert set(entry) == {"id", "claim", "status", "max_residual",
                              "samples_used", "detail"}
    assert doc["summary"]["fail"] == 0
    json.dumps(doc)   # must be serializable as-is


def test_same_seed_same_json():
    a = verify.run_checks(seed=7, samples=3).to_json_dict()
    b = verify.run_checks(seed=7, samples=3).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_text_report_mentions_every_check(healthy_report):
    text = healthy_report.to_text()
    for check_id in verify.check_ids():
        assert check_id in text
    assert "43 checks" in text


def test_context_count_scales():
    ctx = verify.CheckContext(eps=1e-9, samples=100, seed=0, index=1)
    assert ctx.count(50) == 50
    small = verify.CheckContext(eps=1e-9, samples=1, seed=0, index=1)
    assert small.count(50) == 1   # floor of one sample
    big = verify.CheckContext(eps=1e-9, samples=400, seed=0, index=1)
    assert big.count(50) == 200


# Under gamma_3[0, 0] = 0.5 at seed 0 and samples 2: the status of each check
# that runs to the end, by number, and the exception named by each check that
# crashes, NumericalRankFailure unless listed.  A guard that moves or goes
# missing changes the exception a check reports.
TAMPERED_FINISHED = {1: "FAIL", 2: "NOTE", 3: "FAIL", 4: "PASS", 5: "FAIL",
                     6: "FAIL", 11: "FAIL", 26: "PASS", 42: "PASS"}
TAMPERED_CRASHES = {12: "KernelDimensionError", 20: "DerivationFailure",
                    21: "DerivationFailure", 22: "DerivationFailure",
                    30: "ConjugationNotVector", 35: "DerivationFailure"}


def test_exception_becomes_failure(monkeypatch):
    bad = list(cl._GAMMA)
    bad[2] = bad[2].copy()
    bad[2][0, 0] = 0.5
    monkeypatch.setattr(cl, "_GAMMA", tuple(bad))
    report = verify.run_checks(seed=0, samples=2)
    assert not report.ok()
    by_id = {r.check_id: r for r in report.results}
    assert by_id["01-clifford-relations"].status == "FAIL"
    crashed = [r for r in report.results if r.max_residual == -1.0]
    for r in crashed:
        assert r.status == "FAIL"
        assert r.detail   # carries the exception summary
    for number, r in enumerate(report.results, start=1):
        if number in TAMPERED_FINISHED:
            assert r.max_residual != -1.0
            assert r.status == TAMPERED_FINISHED[number]
        else:
            assert r in crashed
            assert r.detail.split(":")[0] == TAMPERED_CRASHES.get(
                number, "NumericalRankFailure")


# sha256 of the "id<TAB>claim" lines of the registry; a changed id, claim or
# order changes every stream after it, so it must be deliberate.
REGISTRY_SHA256 = "7d31a80349df9763c03705f069f73ae65f9e27315a6025440bae72f2722102a4"
# samples_used of checks 01..43 at samples=5
SAMPLES_USED_AT_5 = (0, 0, 5, 2, 5, 0, 5, 2, 2, 1, 2, 2, 2, 2, 1, 4, 1, 1, 1, 1, 1,
                     1, 2, 5, 1, 5, 2, 1, 1, 2, 2, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 3)


def test_registry_ids_and_claims_are_pinned():
    lines = "\n".join(f"{i}\t{claim}" for i, claim, _ in verify.REGISTRY)
    assert hashlib.sha256(lines.encode()).hexdigest() == REGISTRY_SHA256


def test_samples_used_are_pinned(healthy_report):
    assert tuple(r.samples_used for r in healthy_report.results) == SAMPLES_USED_AT_5


def test_run_checks_builds_contexts_through_the_module_global(monkeypatch):
    built = []
    context = verify.CheckContext

    def record(**kwargs):   # keyword arguments only
        built.append(kwargs)
        return context(**kwargs)

    monkeypatch.setattr(verify, "CheckContext", record)
    verify.run_checks(eps=1e-9, seed=3, samples=1)
    assert built == [dict(eps=1e-9, samples=1, seed=3, index=i) for i in range(43)]


def strict_json(report):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(jsonio.dumps(report.to_json_dict()), parse_constant=reject)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of hanging; pytest.fail is no Exception, so no check eats it."""
    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_nan_vector_action_fails_its_checks(monkeypatch):
    monkeypatch.setattr(cl, "vector_action", lambda x, phi: np.full(4, np.nan + 0j))
    report = verify.run_checks(seed=0, samples=2)
    by_id = {r.check_id: r for r in report.results}
    doc = {c["id"]: c for c in strict_json(report)["checks"]}
    for check_id in ("03-clifford-vector-action", "05-clifford-contraction"):
        assert by_id[check_id].status == "FAIL"
        assert math.isnan(by_id[check_id].max_residual)
        assert doc[check_id]["max_residual"] is None


def test_nan_subspace_distance_fails_its_checks_and_ends(monkeypatch):
    monkeypatch.setattr(nx, "subspace_distance", lambda *args, **kwargs: math.nan)
    with time_limit(60):
        report = verify.run_checks(seed=0, samples=2)
    by_id = {r.check_id: r for r in report.results}
    for check_id in ("08-frames-splitting", "13-su2-equivalence",
                     "17-su2-splitting", "31-spin-act-admissible"):
        assert by_id[check_id].status == "FAIL"
    # its rejection loop never accepts a NaN distance, so it gives up
    conjugacy = by_id["33-spin-conjugacy"]
    assert conjugacy.status == "FAIL"
    assert conjugacy.detail == "RuntimeError: no acceptable draw in 1000 tries"
    strict_json(report)
