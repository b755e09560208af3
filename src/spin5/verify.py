"""Self-verification registry: every documented invariant as a runnable check.

Each check draws from its own deterministic random stream (seeded by the
global seed and the check's registry position), measures a worst-case
residual, and reports PASS, FAIL or NOTE:

* PASS / FAIL assert an invariant, almost always "residual <= tolerance".
* NOTE records the outcome of a convention probe (eigenvalue labelling,
  conjugation direction, the sign of the volume element) without asserting
  a preferred answer; a healthy build has zero FAILs and a fixed set of
  NOTEs.

A check that raises is reported as FAIL with the exception in its detail
and a residual of -1 (meaning: no residual was produced).  Tolerances
fixed by exact integer arithmetic or by the verified source values are
pinned literally inside the checks; everything else uses the report-wide
eps.

Each check is declared once, next to its body; file order is id order.
Every running max or min goes through `_Running`, in which a NaN sticks,
so a NaN residual fails its check (JSON writes it as null), and every
rejection-sampling loop gives up after 1000 draws, which reports a crash.

Sample counts scale linearly with the `samples` parameter (100 keeps the
documented defaults).  Elapsed times appear only in the text rendering so
that the JSON rendering is byte-identical across runs with equal inputs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import clifford as cl
from . import jsonio
from . import numerics as nx
from . import quaternionic as qt
from . import spingroup as sg
from . import su2 as su
from . import torsion as ts
from .frames import build_frame, reeb_vector, rep_matrix


@dataclass(frozen=True)
class CheckContext:
    eps: float
    samples: int
    seed: int
    index: int

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index])

    def count(self, base: int) -> int:
        return max(1, round(base * self.samples / 100))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    status: str                # PASS | FAIL | NOTE
    max_residual: float
    samples_used: int
    detail: str
    elapsed: float


@dataclass(frozen=True)
class VerificationReport:
    eps: float
    seed: int
    samples: int
    results: tuple[CheckResult, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"PASS": 0, "FAIL": 0, "NOTE": 0}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def ok(self) -> bool:
        return self.counts["FAIL"] == 0

    def to_json_dict(self) -> dict:
        return {
            "eps": float(self.eps),
            "seed": int(self.seed),
            "samples": int(self.samples),
            "checks": [
                {
                    "id": r.check_id,
                    "claim": r.claim,
                    "status": r.status,
                    "max_residual": (float(r.max_residual)   # strict JSON: no NaN
                                     if math.isfinite(r.max_residual) else None),
                    "samples_used": int(r.samples_used),
                    "detail": r.detail,
                }
                for r in self.results
            ],
            "summary": {k.lower(): v for k, v in self.counts.items()},
        }

    def to_text(self) -> str:
        lines = [f"verification report  eps={self.eps:g}  seed={self.seed}"
                 f"  samples={self.samples}"]
        for r in self.results:
            lines.append(f"[{r.status}] {r.check_id}  residual {r.max_residual:.2e}"
                         f"  n={r.samples_used}  {1000 * r.elapsed:.0f} ms")
            lines.append(f"       {r.claim}")
            if r.detail:
                lines.append(f"       {r.detail}")
        c = self.counts
        total = sum(r.elapsed for r in self.results)
        lines.append(f"{len(self.results)} checks: {c['PASS']} pass,"
                     f" {c['FAIL']} fail, {c['NOTE']} note  ({total:.1f} s)")
        return "\n".join(lines) + "\n"


Outcome = tuple[str, float, int, str]
Check = Callable[[CheckContext], Outcome]
Sample = Iterator[float]

_DECLARED: list[tuple[str, str, Check]] = []


def _check(check_id: str, claim: str) -> Callable[[Check], Check]:
    """Register the decorated check; declaration order must be id order."""
    def register(fn: Check) -> Check:
        _DECLARED.append((check_id, claim, fn))
        return fn
    return register


def _sampled(check_id: str, claim: str, base: int, detail: str,
             tol: float | None = None) -> Callable[..., Check]:
    """Register a check that keeps the worst residual over ctx.count(base) samples.

    The decorated body(ctx, rng, k) yields the residuals of sample k, drawing
    from the check's stream rng; the check passes when the worst residual is
    at most tol (ctx.eps when tol is None).
    """
    def register(body: Callable[..., Sample]) -> Check:
        def check(ctx: CheckContext) -> Outcome:
            rng, n, worst = ctx.rng(), ctx.count(base), _Running()
            for k in range(n):
                worst.add(*body(ctx, rng, k))
            return _verdict(worst.value, ctx.eps if tol is None else tol, n, detail)
        return _check(check_id, claim)(check)
    return register


class _Running:
    """Running max (or min, with pick=min) keeping a NaN; max(worst, nan) drops it."""

    def __init__(self, start: float = 0.0, pick: Callable = max) -> None:
        self.value, self._pick = start, pick

    def add(self, *residuals: float) -> _Running:
        for r in map(float, residuals):
            # pick(nan, r) returns the nan it holds, as both comparisons are false
            self.value = r if math.isnan(r) else self._pick(self.value, r)
        return self


def _absmax(x) -> float:
    return float(np.abs(x).max())


def _norm(x) -> float:
    return float(np.linalg.norm(x))


def _triple_laws(pair: Callable, one, measure: Callable[..., float]) -> Sample:
    """Residuals of the quaternion laws a a = -1 and a b = -b a for a triple.

    pair(a, b) is the product of members a and b, either as a matrix (one is
    then the identity) or applied to a probe spinor (one is then the probe).
    """
    for a in range(3):
        yield measure(pair(a, a) + one)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        yield measure(pair(a, b) + pair(b, a))


def _draw_until(draw: Callable, accept: Callable) -> object:
    """First draw() that accept() takes; a NaN test never accepts, so bound it."""
    for _ in range(1000):
        value = draw()
        if accept(value):
            return value
    raise RuntimeError("no acceptable draw in 1000 tries")


def _verdict(residual: float, tol: float, n: int, detail: str = "") -> Outcome:
    return ("PASS" if residual <= tol else "FAIL", float(residual), n, detail)


def _fundamental_space(eps: float) -> su.AdmissibleSpace:
    """The plane span{s_3, s_4}, which is V_phi for phi = s_1."""
    return su.space_of_spinor(cl.standard_spinor(1), eps)


# --- clifford --------------------------------------------------------------

@_check("01-clifford-relations",
        "generator anticommutation and skew-hermitian symmetry hold bit-exactly")
def _chk_clifford_relations(ctx: CheckContext) -> Outcome:
    worst = _Running()
    eye = np.eye(4)
    for i in range(1, 6):
        gi = cl.gamma(i)
        worst.add(_absmax(gi + gi.conj().T))
        for j in range(1, 6):
            gj = cl.gamma(j)
            worst.add(_absmax(gi @ gj + gj @ gi + 2.0 * (i == j) * eye))
    return _verdict(worst.value, 0.0, 0,
                    "entries are 0, +-1, +-i, so the identities are bit-exact")


@_check("02-clifford-volume",
        "sign probe: the product of all five generators is a scalar complex "
        "structure")
def _chk_clifford_volume(ctx: CheckContext) -> Outcome:
    vol = cl.volume_action()
    eye = np.eye(4)
    r_minus = _absmax(vol + 1j * eye)
    r_plus = _absmax(vol - 1j * eye)
    r_square = _absmax(vol @ vol + eye)
    detail = (f"product equals -i*Id (residual {r_minus:.1e}); +i*Id misses by "
              f"{r_plus:.1f}; square is -Id (residual {r_square:.1e}); the sign "
              "is forced by the generator action table (e_12, e_34 and e_5 "
              "each act as +i on the first basis spinor)")
    return ("NOTE", r_minus, 0, detail)


@_sampled("03-clifford-vector-action",
          "vector multiplication is a skew-hermitian isometry squaring to -|x|^2",
          100, "x.x.phi = -phi, |x.phi| = |phi|, and x. is skew-hermitian")
def _chk_clifford_vector_action(ctx, rng, k) -> Sample:
    x = cl.random_unit_vector(rng)
    phi = cl.random_unit_spinor(rng)
    psi = cl.random_unit_spinor(rng)
    xphi = cl.vector_action(x, phi)
    yield _norm(cl.vector_action(x, xphi) + phi)
    yield abs(_norm(xphi) - 1.0)
    yield abs(cl.hermitian(xphi, psi) + cl.hermitian(phi, cl.vector_action(x, psi)))


@_sampled("04-clifford-form-action",
          "the two-form action is bilinear and matches generator products",
          50, "real-linear in the form, complex-linear in the spinor, "
              "and e_i^e_j acts as gamma_i gamma_j")
def _chk_clifford_form_action(ctx, rng, k) -> Sample:
    w, v = cl.random_two_form(rng), cl.random_two_form(rng)
    a, b = rng.standard_normal(2)
    phi = cl.random_unit_spinor(rng)
    c = complex(*rng.standard_normal(2))
    rep = cl.two_form_matrix_rep
    yield _absmax(rep(a * w + b * v) - a * rep(w) - b * rep(v))
    yield _norm(cl.form_action(w, c * phi) - c * cl.form_action(w, phi))
    i, j = sorted(rng.choice(np.arange(1, 6), size=2, replace=False))
    wij = cl.wedge_vectors(cl.standard_vector(i), cl.standard_vector(j))
    yield _norm(cl.form_action(wij, phi) - cl.gamma(int(i)) @ cl.gamma(int(j)) @ phi)
    yield _absmax(cl.KForm.from_two_form(w).matrix_rep() - rep(w))


@_sampled("05-clifford-contraction",
          "the vector/two-form commutator is twice the contraction",
          100, "x.(w.phi) - w.(x.phi) + 2(x,w).phi = 0; the contraction "
               "term enters with a plus sign under (x,w)(v) = w(x,v)")
def _chk_clifford_contraction(ctx, rng, k) -> Sample:
    x = rng.standard_normal(5)
    w = cl.random_two_form(rng)
    phi = cl.random_unit_spinor(rng)
    lhs = (cl.vector_action(x, cl.form_action(w, phi))
           - cl.form_action(w, cl.vector_action(x, phi))
           + 2.0 * cl.form_action(cl.interior_product(x, w), phi))
    yield _norm(lhs) / max(1.0, _norm(x) * _norm(w))


# Verified action table of the generators on the first two basis spinors:
# (vector index, source spinor) -> (coefficient, target spinor), and
# (two-form pair) -> action on s1.
_VECTOR_TABLE = {
    (1, 1): (1j, 4), (2, 1): (1.0, 4), (3, 1): (-1j, 3), (4, 1): (-1.0, 3),
    (5, 1): (1j, 1),
    (1, 2): (1j, 3), (2, 2): (-1.0, 3), (3, 2): (1j, 4), (4, 2): (-1.0, 4),
    (5, 2): (1j, 2),
}
_TWO_FORM_TABLE = {
    (1, 2): (1j, 1), (1, 3): (1.0, 2), (1, 4): (-1j, 2), (1, 5): (-1.0, 4),
    (2, 3): (-1j, 2), (2, 4): (-1.0, 2), (2, 5): (1j, 4),
    (3, 4): (1j, 1), (3, 5): (1.0, 3), (4, 5): (-1j, 3),
}


@_check("06-clifford-action-table",
        "the tabulated generator actions on the first two basis spinors hold "
        "to 1e-15")
def _chk_clifford_action_table(ctx: CheckContext) -> Outcome:
    worst = _Running()
    for (i, k), (coeff, m) in _VECTOR_TABLE.items():
        got = cl.vector_action(cl.standard_vector(i), cl.standard_spinor(k))
        worst.add(_norm(got - coeff * cl.standard_spinor(m)))
    s1 = cl.standard_spinor(1)
    for (i, j), (coeff, m) in _TWO_FORM_TABLE.items():
        w = cl.wedge_vectors(cl.standard_vector(i), cl.standard_vector(j))
        worst.add(_norm(cl.form_action(w, s1) - coeff * cl.standard_spinor(m)))
    return _verdict(worst.value, 1e-15, 0,
                    "all 20 tabulated products e_i.s_1, e_i.s_2, e_ij.s_1 "
                    "match their stored values")


# --- frames ----------------------------------------------------------------

@_sampled("07-frames-reeb",
          "existence and uniqueness of the Reeb vector of a unit spinor",
          100, "solution is unique: the 8x5 system is an isometry (R^T R = Id "
               "within the residual); on basis spinors y is +-e_5 exactly")
def _chk_frames_reeb(ctx, rng, k) -> Sample:
    phi = cl.random_unit_spinor(rng)
    y = reeb_vector(phi, ctx.eps)
    yield abs(_norm(y) - 1.0)
    yield _norm(cl.vector_action(y, phi) - 1j * phi)
    r = rep_matrix(phi)
    yield _norm(r.T @ r - np.eye(5))
    yield _norm(nx.solve_columns(r, cl.spinor_to_real(1j * phi))[0] - y)
    if k == 0:   # the basis spinors draw nothing, so they are measured once
        yield _norm(reeb_vector(cl.standard_spinor(1)) - cl.standard_vector(5))
        yield _norm(reeb_vector(cl.standard_spinor(3)) + cl.standard_vector(5))


@_sampled("08-frames-splitting",
          "the canonical frame splits Delta orthogonally with the right "
          "dimensions",
          50, "W is real 5-dimensional, V = D.phi is a complex 2-plane, "
              "and Delta = V + span{phi, phi~} splits orthogonally")
def _chk_frames_splitting(ctx, rng, k) -> Sample:
    phi = cl.random_unit_spinor(rng)
    fr = build_frame(phi, ctx.eps)
    yield _absmax(fr.d_basis @ fr.y)
    yield _absmax(fr.d_basis @ fr.d_basis.T - np.eye(4))
    yield float(nx.numerical_rank(cl.spinor_to_real(fr.w_basis), ctx.eps) != 5)
    yield _absmax(fr.v_basis @ fr.v_basis.conj().T - np.eye(2))
    images = cl.vector_matrix(fr.d_basis) @ phi
    yield nx.subspace_distance(images, fr.v_basis, ctx.eps)
    for psi in (phi, fr.phi_tilde):
        for v in fr.v_basis:
            yield abs(cl.hermitian(v, psi))
        c = rng.standard_normal(4)
        x = fr.d_basis.T @ (c / np.linalg.norm(c))
        yield abs(cl.hermitian(cl.vector_action(x, phi), psi))
    yield abs(cl.hermitian(fr.phi_tilde, phi))
    yield abs(_norm(fr.phi_tilde) - 1.0)
    yield _norm(cl.vector_action(fr.y, fr.phi_tilde) - 1j * fr.phi_tilde)
    own = su.space_of_spinor(phi, ctx.eps)
    supplied = su.admissible_space(fr.v_basis, ctx.eps)
    yield nx.subspace_distance(own.vperp_basis, supplied.vperp_basis, ctx.eps)
    yield _norm(own.y - supplied.y)


@_sampled("09-frames-eigenvalues",
          "the Reeb action has eigenvalues +-i, each of complex multiplicity 2",
          50, "the Reeb action squares to -Id and is traceless, so its "
              "eigenvalues are +-i with complex multiplicity 2 each")
def _chk_frames_eigenvalues(ctx, rng, k) -> Sample:
    ly = cl.vector_matrix(reeb_vector(cl.random_unit_spinor(rng), ctx.eps))
    yield _absmax(ly @ ly + np.eye(4))
    yield abs(complex(np.trace(ly)))


@_check("10-frames-eigenspace-labels",
        "labelling probe: which eigenspace carries the defining spinor")
def _chk_frames_eigenspace_labels(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(10)
    worst = _Running()
    for _ in range(n):
        phi = cl.random_unit_spinor(rng)
        fr = build_frame(phi, ctx.eps)
        ly = cl.vector_matrix(fr.y)
        plus = nx.kernel_basis(ly - 1j * np.eye(4), ctx.eps)
        minus = nx.kernel_basis(ly + 1j * np.eye(4), ctx.eps)
        worst.add(nx.subspace_distance(plus, np.array([phi, fr.phi_tilde]), ctx.eps),
                  nx.subspace_distance(minus, fr.v_basis, ctx.eps))
    detail = ("labelling probe: the +i eigenspace of y. is span{phi, phi~} "
              "(the complement of V), the -i eigenspace is V itself; a "
              "statement attaching -i to all of V-perp does not match this "
              f"convention (max residual {worst.value:.1e})")
    return ("NOTE", worst.value, n, detail)


# --- su2 -------------------------------------------------------------------

@_check("11-su2-spinor-orbit",
        "the two-forms sweep out the full orthogonal complement of a spinor")
def _chk_su2_spinor_orbit(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(50)
    worst = _Running()
    min_gap = _Running(np.inf, min)
    products = cl.two_form_gamma_products()
    for _ in range(n):
        phi = cl.random_unit_spinor(rng)
        rows = cl.spinor_to_real(products @ phi)
        sing = np.linalg.svd(rows, compute_uv=False)
        min_gap.add(sing[6])
        worst.add(sing[7] if sing.size > 7 else 0.0)
        worst.add(*(abs(cl.inner(p @ phi, phi)) for p in products))
    detail = f"orbit rank is 7 (7th singular value >= {min_gap.value:.3f})"
    return _verdict(worst.value, ctx.eps, n, detail)


_FUNDAMENTAL_ANNIHILATOR = np.array([
    [1.0, 0, 0, 0, 0, 0, 0, -1.0, 0, 0],   # e12 - e34
    [0, 1.0, 0, 0, 0, 1.0, 0, 0, 0, 0],    # e13 + e24
    [0, 0, 1.0, 0, -1.0, 0, 0, 0, 0, 0],   # e14 - e23
])


@_check("12-su2-annihilator",
        "each spinor has a 3-dimensional annihilator matching the stored "
        "fundamental value")
def _chk_su2_annihilator(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(50)
    worst_fund = nx.subspace_distance(
        su.annihilator(cl.standard_spinor(1), ctx.eps), _FUNDAMENTAL_ANNIHILATOR)
    worst = _Running()
    for _ in range(n):
        phi = cl.random_unit_spinor(rng)
        basis = su.annihilator(phi, ctx.eps)   # raises unless 3-dimensional
        worst.add(*(_norm(cl.form_action(w, phi)) for w in basis))
    worst.add(0.0 if worst_fund <= 1e-12 else worst_fund)
    detail = (f"annihilator of the first basis spinor matches "
              f"span{{e12-e34, e13+e24, e14-e23}} to {worst_fund:.1e}")
    return _verdict(worst.value, ctx.eps, n, detail)


@_check("13-su2-equivalence",
        "complement spinors of one admissible plane share their annihilator")
def _chk_su2_equivalence(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    spaces = ctx.count(20)
    per = ctx.count(10)
    worst = _Running()
    for _ in range(spaces):
        space = su.random_admissible_space(rng, ctx.eps)
        ref = su.annihilator(space.vperp_basis[0], ctx.eps)
        probes = [space.vperp_basis[1]]
        probes += [su.random_complement_spinor(space, rng) for _ in range(per)]
        worst.add(*(nx.subspace_distance(su.annihilator(psi, ctx.eps), ref)
                    for psi in probes))
    return _verdict(worst.value, ctx.eps, spaces * (per + 1),
                    "all unit spinors in the complement of an admissible "
                    "plane share one annihilator algebra")


@_check("14-su2-separation",
        "spinors outside the complement have distinct annihilators")
def _chk_su2_separation(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(50)
    closest = _Running(np.inf, min)
    for _ in range(n):
        space = su.random_admissible_space(rng, ctx.eps)
        ref = su.annihilator(space.vperp_basis[0], ctx.eps)
        chi = _draw_until(lambda: cl.random_unit_spinor(rng),
                          lambda chi: nx.distance_to_row_span(
                              chi, space.vperp_basis, ctx.eps) > 0.05)
        closest.add(nx.subspace_distance(su.annihilator(chi, ctx.eps), ref))
    status = "PASS" if closest.value > 1e-3 else "FAIL"
    return (status, closest.value, n,
            "spinors with a component inside the plane have a different "
            "annihilator; smallest observed subspace distance is reported")


@_sampled("15-su2-basis-construction",
          "the paired-basis construction closes with u2 = -x1",
          25, "solving x.phi = u.phi~ and feeding u back in returns the "
              "negated start vector: u2 = -x1")
def _chk_su2_basis_construction(ctx, rng, k) -> Sample:
    space = su.random_admissible_space(rng, ctx.eps)
    phi, phi_tilde = space.vperp_basis
    rep_tilde = rep_matrix(phi_tilde)
    c = rng.standard_normal(4)
    x1 = space.d_basis.T @ (c / np.linalg.norm(c))
    u1, r1 = nx.solve_columns(rep_tilde,
                              cl.spinor_to_real(cl.vector_action(x1, phi)))
    u2, r2 = nx.solve_columns(rep_tilde,
                              cl.spinor_to_real(cl.vector_action(u1, phi)))
    yield from (r1, r2, _norm(u2 + x1))


@_check("16-su2-admissibility-tests",
        "the spanning and conjugation characterizations of admissibility agree")
def _chk_su2_admissibility_tests(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    moved_n = ctx.count(50)
    random_n = ctx.count(50)
    v0 = _fundamental_space(ctx.eps)
    disagreements = 0
    admissible_seen = 0
    for _ in range(moved_n):
        g = sg.random_spin(rng)
        res = su.is_admissible(g.apply(v0.v_basis), ctx.eps, rng=rng)
        # the two tests must agree, and moved planes must stay admissible
        disagreements += (res.spanning_test != res.conjugation_test) + (not res.verdict)
        admissible_seen += int(res.verdict)
    for _ in range(random_n):
        rows = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        basis = nx.orthonormalize_rows(rows, ctx.eps, require=2)
        res = su.is_admissible(basis, ctx.eps, rng=rng)
        disagreements += res.spanning_test != res.conjugation_test
        admissible_seen += int(res.verdict)
    detail = (f"{moved_n} rotated copies of the fundamental plane all "
              f"admissible, {random_n} random planes: {admissible_seen - moved_n} "
              "admissible, spanning and conjugation tests never disagreed")
    status = "PASS" if disagreements == 0 else "FAIL"
    return (status, float(disagreements), moved_n + random_n, detail)


@_check("17-su2-splitting",
        "so(5) splits into su(2)- + su(2)+ + D^y with orthonormal blocks")
def _chk_su2_splitting(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(25)
    worst = _Running()
    worst_cond = _Running(1.0)
    for _ in range(n):
        space = su.random_admissible_space(rng, ctx.eps)
        sp = su.so5_splitting(space, ctx.eps)
        stacked = sp.stacked()   # rows: su(2)-, su(2)+, the D^y forms
        worst.add(_absmax(stacked @ stacked.T - np.eye(10)))
        sing = np.linalg.svd(stacked, compute_uv=False)
        worst_cond.add(sing[0] / sing[-1])
        worst.add(*np.abs(cl.interior_product(space.y, stacked[:6])).max(axis=-1))
        rows, cols = np.triu_indices(len(space.d_basis), 1)
        wedges = cl.wedge_vectors(space.d_basis[rows], space.d_basis[cols])
        proj = wedges - wedges @ sp.su2_minus.T @ sp.su2_minus
        worst.add(nx.subspace_distance(proj, sp.su2_plus, ctx.eps))
    detail = (f"blocks are orthonormal, tangent to the distribution, and "
              f"su(2)+ is the complement of su(2)- inside the tangent "
              f"two-forms; condition number of the 10x10 basis is "
              f"{worst_cond.value:.6f}")
    return _verdict(worst.value, ctx.eps, n, detail)


@_check("18-su2-brackets",
        "the two su(2) blocks close under the bracket and commute")
def _chk_su2_brackets(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(25)
    worst = _Running()
    c123 = _Running()
    for _ in range(n):
        space = su.random_admissible_space(rng, ctx.eps)
        sp = su.so5_splitting(space, ctx.eps)
        for block in (sp.su2_minus, sp.su2_plus):
            for a, b in ((0, 1), (0, 2), (1, 2)):
                br = su.two_form_bracket(block[a], block[b])
                worst.add(nx.distance_to_row_span(br, block, ctx.eps))
                c123.add(_norm(br))
        worst.add(*(_norm(su.two_form_bracket(a, b))
                    for a in sp.su2_minus for b in sp.su2_plus))
    detail = (f"each block closes under the bracket with structure constants "
              f"of modulus {c123.value:.4f} (sqrt 2 for orthonormal su(2) bases) "
              "and the two blocks commute elementwise")
    return _verdict(worst.value, ctx.eps, n, detail)


@_check("19-su2-action-targets",
        "target probe: where su(2)+ and the D^y forms send a complement spinor")
def _chk_su2_action_targets(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(10)
    worst = _Running()
    for _ in range(n):
        space = su.random_admissible_space(rng, ctx.eps)
        phi = space.vperp_basis[0]
        triple = qt.adapted_triple(space, ctx.eps)
        plus_images = cl.spinor_to_real(su.dual_action_span(space, phi, ctx.eps))
        jphis = cl.spinor_to_real([op(phi) for op in triple.ops()])
        worst.add(nx.subspace_distance(plus_images, jphis, ctx.eps))
        sp = su.so5_splitting(space, ctx.eps)
        r4_images = cl.spinor_to_real(cl.two_form_matrix_rep(sp.r4) @ phi)
        v_real = cl.spinor_to_real(np.vstack([space.v_basis, 1j * space.v_basis]))
        worst.add(nx.subspace_distance(r4_images, v_real, ctx.eps))
    detail = ("target probe: su(2)+.phi spans the quaternionic tangent "
              "directions {j_k phi} inside the complement of V, and the "
              "D^y forms map phi onto V itself "
              f"(max subspace residual {worst.value:.1e})")
    return ("NOTE", worst.value, n, detail)


# --- quaternionic ----------------------------------------------------------

_CONJUGATION_ORACLE = np.array([
    [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=complex)


@_sampled("20-quaternionic-conjugation",
          "the antilinear structure matches its stored value and spans the "
          "solutions of its laws",
          25, "the antilinear structure is the stored product of the "
              "second and fourth generators, spans the one-dimensional "
              "solution space of anticommutation with all five, "
              "squares to -Id, and is a skew isometry", tol=1e-12)
def _chk_quaternionic_conjugation(ctx, rng, k) -> Sample:
    c = qt.charge_conjugation(ctx.eps)
    if k == 0:   # the stored value and the laws draw nothing
        # The laws C conj(g_k) + g_k C = 0 are linear in C; in row-major
        # vectorization they form an 80x16 system whose kernel must be a
        # single complex line, and C must lie on it.
        eye = np.eye(4)
        system = np.vstack([np.kron(eye, cl.gamma(i).conj().T)
                            + np.kron(cl.gamma(i), eye) for i in range(1, 6)])
        yield abs(nx.kernel_basis(system, ctx.eps).shape[0] - 1)
        yield _absmax(system @ c.reshape(-1))
        yield _absmax(c - _CONJUGATION_ORACLE)
        yield _absmax(c @ c.conj() + np.eye(4))
    op = qt.AntilinearOp(c, True)
    phi = cl.random_unit_spinor(rng)
    psi = cl.random_unit_spinor(rng)
    yield abs(_norm(op(phi)) - 1.0)
    yield abs(cl.inner(op(phi), psi) + cl.inner(phi, op(psi)))


@_sampled("21-quaternionic-global-triple",
          "the global triple is quaternionic with the stated vector "
          "(anti)commutation",
          25, "i, the antilinear structure and their product form a "
              "quaternionic triple of isometries; the first commutes "
              "with vectors, the other two anticommute")
def _chk_quaternionic_global_triple(ctx, rng, k) -> Sample:
    triple = qt.global_triple(ctx.eps)
    ops = triple.ops()
    psi = cl.random_unit_spinor(rng)
    x = cl.random_unit_vector(rng)
    yield from _triple_laws(lambda a, b: ops[a](ops[b](psi)), psi, _norm)
    for op in ops:
        yield abs(_norm(op(psi)) - 1.0)
    yield _norm(triple.k3(psi) - triple.k1(triple.k2(psi)))
    xpsi = cl.vector_action(x, psi)
    yield _norm(triple.k1(xpsi) - cl.vector_action(x, triple.k1(psi)))
    for op in (triple.k2, triple.k3):
        yield _norm(op(xpsi) + cl.vector_action(x, op(psi)))


@_sampled("22-quaternionic-adapted-triple",
          "the plane-adapted triple is quaternionic and distribution-compatible",
          25, "the plane-adapted triple (sign flipped on the "
              "complement) is quaternionic, commutes with Clifford "
              "multiplication by distribution vectors on all of Delta "
              "and anticommutes with the Reeb direction")
def _chk_quaternionic_adapted_triple(ctx, rng, k) -> Sample:
    i2 = qt.AntilinearOp(qt.charge_conjugation(ctx.eps), True)
    space = su.random_admissible_space(rng, ctx.eps)
    triple = qt.adapted_triple(space, ctx.eps)
    ops = triple.ops()
    psi = cl.random_unit_spinor(rng)
    yield from _triple_laws(lambda a, b: ops[a](ops[b](psi)), psi, _norm)
    c = rng.standard_normal(4)
    x = space.d_basis.T @ (c / np.linalg.norm(c))
    xpsi = cl.vector_action(x, psi)
    for op in ops:
        yield _norm(op(xpsi) - cl.vector_action(x, op(psi)))
    ypsi = cl.vector_action(space.y, psi)
    for op in (triple.k2, triple.k3):
        yield _norm(op(ypsi) + cl.vector_action(space.y, op(psi)))
    cv = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = space.v_basis.T @ cv
    w = space.vperp_basis.T @ cv
    yield _norm(triple.k2(v) - i2(v))
    yield _norm(triple.k2(w) + i2(w))


@_sampled("23-quaternionic-complex-structure",
          "every complement spinor induces an orthogonal complex structure on D",
          50, "x.(i phi) = J(x).phi defines an orthogonal complex "
              "structure on the distribution for every complement "
              "spinor")
def _chk_quaternionic_complex_structure(ctx, rng, k) -> Sample:
    space = su.random_admissible_space(rng, ctx.eps)
    phi = su.random_complement_spinor(space, rng)
    j = qt.complex_structure(phi, space, ctx.eps)
    yield _absmax(j @ j + np.eye(4))
    yield _absmax(j.T @ j - np.eye(4))
    coords = rng.standard_normal(4)
    x = space.d_basis.T @ coords
    jx = space.d_basis.T @ (j @ coords)
    yield _norm(cl.vector_action(x, 1j * phi) - cl.vector_action(jx, phi))


@_check("24-quaternionic-hopf-formula",
        "the closed-form Hopf matrix reproduces the solved structure")
def _chk_quaternionic_hopf_formula(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(100)
    space = _fundamental_space(ctx.eps)
    worst = _Running()
    for _ in range(n):
        q = cl.random_unit_vector(rng, 4)
        phi = ((q[0] + 1j * q[1]) * space.vperp_basis[0]
               + (q[2] + 1j * q[3]) * space.vperp_basis[1])
        point = qt.hopf(*q, eps=ctx.eps)
        worst.add(abs(sum(p * p for p in point) - 1.0))
        j = qt.complex_structure(phi, space, ctx.eps)
        worst.add(_absmax(j - qt.hopf_matrix(*point, eps=ctx.eps)))
        coords = qt.hopf_coordinates(phi, space)
        worst.add(_norm(np.array(coords) - q))
        p2 = cl.random_unit_vector(rng, 3)
        jm = qt.hopf_matrix(*p2, eps=ctx.eps)
        worst.add(_absmax(jm @ jm + np.eye(4)))
    return _verdict(worst.value, ctx.eps, n,
                    "on the fundamental plane the closed-form Hopf matrix of "
                    "the sphere point reproduces the solved J, and every "
                    "sphere point yields a complex structure")


@_check("25-quaternionic-hopf-fiber",
        "structures agree exactly on unit-phase fibers and separate off them")
def _chk_quaternionic_hopf_fiber(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    spaces = ctx.count(10)
    phases = ctx.count(5)
    worst = _Running()
    for _ in range(spaces):
        space = su.random_admissible_space(rng, ctx.eps)
        phi = su.random_complement_spinor(space, rng)
        j = qt.complex_structure(phi, space, ctx.eps)
        for _ in range(phases):
            lam = np.exp(2j * np.pi * rng.random())
            worst.add(_absmax(qt.complex_structure(lam * phi, space, ctx.eps) - j))
    closest = _Running(np.inf, min)
    for _ in range(ctx.count(20)):
        qa = cl.random_unit_vector(rng, 4)
        qb = cl.random_unit_vector(rng, 4)
        pa = np.array(qt.hopf(*qa, eps=ctx.eps))
        pb = np.array(qt.hopf(*qb, eps=ctx.eps))
        if np.linalg.norm(pa - pb) < 0.1:
            continue
        ja = qt.hopf_matrix(*pa, eps=ctx.eps)
        jb = qt.hopf_matrix(*pb, eps=ctx.eps)
        closest.add(_norm(ja - jb))
    status = "PASS" if worst.value <= ctx.eps and closest.value > 1e-3 else "FAIL"
    detail = (f"unit-phase multiples give the same J (residual {worst.value:.1e}); "
              f"separated sphere points give separated structures "
              f"(closest distance {closest.value:.3f})")
    return (status, worst.value, spaces * phases, detail)


@_sampled("26-quaternionic-anticommutation",
          "sphere structures anticommute exactly for orthogonal points",
          100, "J(p)J(q) + J(q)J(p) = -2<p,q> Id, so two sphere "
               "structures anticommute exactly when their points are "
               "orthogonal")
def _chk_quaternionic_anticommutation(ctx, rng, k) -> Sample:
    p = cl.random_unit_vector(rng, 3)
    q = cl.random_unit_vector(rng, 3)
    jp = qt.hopf_matrix(*p, eps=ctx.eps)
    jq = qt.hopf_matrix(*q, eps=ctx.eps)
    yield _absmax(jp @ jq + jq @ jp + 2.0 * float(p @ q) * np.eye(4))


@_check("27-quaternionic-nonexistence",
        "only scalar plane endomorphisms induce spinor-independent maps on D")
def _chk_quaternionic_nonexistence(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    t_count = ctx.count(20)
    phi_count = max(2, ctx.count(10))   # spreads need at least one pair
    space = _fundamental_space(ctx.eps)

    def induced_spread(t: np.ndarray) -> float:
        maps = []
        for _ in range(phi_count):
            phi = su.random_complement_spinor(space, rng)
            maps.append(qt.induced_map(t, phi, space, ctx.eps))
        return _Running().add(*(_absmax(a - b) for i, a in enumerate(maps)
                                for b in maps[i + 1:])).value

    min_spread = _Running(np.inf, min)
    for _ in range(t_count):
        t = _draw_until(lambda: rng.standard_normal((4, 4)),
                        lambda t: np.linalg.norm(t - np.trace(t) / 4.0 * np.eye(4))
                        > 0.1)
        min_spread.add(induced_spread(t))
    scalar_worst = _Running()
    for _ in range(ctx.count(5)):
        a = float(rng.standard_normal())
        scalar_worst.add(induced_spread(a * np.eye(4)))
    status = ("PASS" if min_spread.value > 1e-6 and scalar_worst.value <= ctx.eps
              else "FAIL")
    detail = (f"non-scalar endomorphisms of the plane induce spinor-dependent "
              f"maps on D (smallest spread {min_spread.value:.3f}); scalar ones "
              f"are spinor-independent (max spread {scalar_worst.value:.1e})")
    return (status, scalar_worst.value, t_count * phi_count, detail)


_FUNDAMENTAL_OMEGAS = np.array([
    [1.0, 0, 0, 0, 0, 0, 0, 1.0, 0, 0],    # e12 + e34
    [0, -1.0, 0, 0, 0, 1.0, 0, 0, 0, 0],   # -e13 + e24
    [0, 0, 1.0, 0, 1.0, 0, 0, 0, 0, 0],    # e14 + e23
])


@_sampled("28-quaternionic-distribution-triple",
          "the distribution triple solves its spinor equations and matches the "
          "stored fundamental matrices",
          15, "on the fundamental plane the triple is J(1,0,0), J(0,1,0) and "
              "J(0,0,-1) = J1 J2 with forms e12+e34, -e13+e24, e14+e23; the "
              "stated product sign matches the stated sphere point")
def _chk_quaternionic_distribution_triple(ctx, rng, k) -> Sample:
    space = (_fundamental_space(ctx.eps) if k == 0
             else su.random_admissible_space(rng, ctx.eps))
    tri = qt.triple_on_distribution(space, ctx.eps)
    js = tri.j_matrices
    yield _absmax(js[2] - js[0] @ js[1])
    yield from _triple_laws(lambda a, b: js[a] @ js[b], np.eye(4), _absmax)
    sp = su.so5_splitting(space, ctx.eps)
    for a in range(3):
        phi_a = tri.spinors[a]
        coords = rng.standard_normal(4)
        x = space.d_basis.T @ coords
        jx = space.d_basis.T @ (js[a] @ coords)
        yield _norm(cl.vector_action(x, 1j * phi_a) - cl.vector_action(jx, phi_a))
        yield _norm(cl.form_action(tri.omegas[a], phi_a) - 2j * phi_a)
        yield nx.distance_to_row_span(tri.omegas[a], sp.su2_plus, ctx.eps)
    if k == 0:
        for j, point in zip(js, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))):
            yield _absmax(j - qt.hopf_matrix(*point))
        yield _absmax(tri.omegas - _FUNDAMENTAL_OMEGAS)


@_check("29-quaternionic-quadruplet",
        "the form quadruplet satisfies w_k ^ w_l = delta_kl v with alpha ^ v "
        "nonzero")
def _chk_quaternionic_quadruplet(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(20)
    worst = _Running()
    min_top = _Running(np.inf, min)
    for k in range(n):
        space = (_fundamental_space(ctx.eps) if k == 0
                 else su.random_admissible_space(rng, ctx.eps))
        quad = qt.structure_quadruplet(space, ctx.eps)
        forms = [cl.KForm.from_two_form(w) for w in quad.omegas]
        for a in range(3):
            for b in range(3):
                diff = forms[a].wedge(forms[b]) + quad.volume.scale(-float(a == b))
                worst.add(diff.norm())
        top = quad.alpha.wedge(quad.volume)
        min_top.add(top.norm())
        if k == 0:
            worst.add(abs(quad.volume.coefficient(1, 2, 3, 4) - 2.0),
                      abs(top.coefficient(1, 2, 3, 4, 5) - 2.0))
    status = "PASS" if worst.value <= 1e-12 and min_top.value > 1e-6 else "FAIL"
    detail = (f"w_k ^ w_l = delta_kl v to {worst.value:.1e}; alpha ^ v has norm "
              f"at least {min_top.value:.3f} (2 e12345 on the fundamental plane)")
    return (status, worst.value, n, detail)


# --- spin group ------------------------------------------------------------

@_sampled("30-spin-equivariance",
          "group elements act equivariantly through special-orthogonal rotations",
          50, "conjugation by an even word induces a special-orthogonal "
              "rotation with g(x.phi) = (Ad g x).(g phi), preserving "
              "the pairing and bracket of two-forms")
def _chk_spin_equivariance(ctx, rng, k) -> Sample:
    g = sg.random_spin(rng, eps=ctx.eps)
    x = cl.random_unit_vector(rng)
    phi = cl.random_unit_spinor(rng)
    v = sg.adjoint_vector(g, x, ctx.eps)
    yield _norm(g.matrix @ cl.vector_action(x, phi)
                - cl.vector_action(v, g.matrix @ phi))
    a = sg.adjoint_matrix(g, ctx.eps)
    yield _absmax(a.T @ a - np.eye(5))
    yield abs(float(np.linalg.det(a)) - 1.0)
    w1, w2 = cl.random_two_form(rng), cl.random_two_form(rng)
    g_w1, g_w2, g_bracket = sg.adjoint_form(
        g, np.array([w1, w2, su.two_form_bracket(w1, w2)]), ctx.eps)
    yield abs(float(g_w1 @ g_w2 - w1 @ w2))
    yield _norm(g_bracket - su.two_form_bracket(g_w1, g_w2))


@_sampled("31-spin-act-admissible",
          "the group action preserves admissibility",
          50, "the image of an admissible plane under any group element "
              "is admissible and is canonicalized to the same subspace")
def _chk_spin_act_admissible(ctx, rng, k) -> Sample:
    space = (_fundamental_space(ctx.eps) if k % 2 == 0
             else su.random_admissible_space(rng, ctx.eps))
    g = sg.random_spin(rng, eps=ctx.eps)
    moved = sg.act_on_space(g, space, ctx.eps, rng=rng)
    yield nx.subspace_distance(moved.v_basis, g.apply(space.v_basis), ctx.eps)


@_check("32-spin-stabilizer",
        "plane stabilizers have the 6-dimensional algebra su(2)- + su(2)+")
def _chk_spin_stabilizer(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(25)
    worst = _Running()
    dims = set()
    for _ in range(n):
        space = su.random_admissible_space(rng, ctx.eps)
        alg = sg.stabilizer_algebra(space, ctx.eps)
        dims.add(alg.shape[0])
        sp = su.so5_splitting(space, ctx.eps)
        worst.add(nx.subspace_distance(
            alg, np.vstack([sp.su2_minus, sp.su2_plus]), ctx.eps))
        coeff = rng.standard_normal(alg.shape[0])
        g = sg.exp_element(alg.T @ coeff)
        moved = sg.act_on_space(g, space, ctx.eps, rng=rng)
        worst.add(nx.subspace_distance(moved.v_basis, space.v_basis, ctx.eps))
        h = sg.random_stabilizer_element(space, rng, eps=ctx.eps)
        moved = sg.act_on_space(h, space, ctx.eps, rng=rng)
        worst.add(nx.subspace_distance(moved.v_basis, space.v_basis, ctx.eps))
    status = "PASS" if dims == {6} and worst.value <= ctx.eps else "FAIL"
    detail = (f"observed algebra dimensions {sorted(dims)}; exponentials and "
              "even tangent words both fix the plane")
    return (status, worst.value, n, detail)


@_check("33-spin-conjugacy",
        "conjugation preserves the plane's algebra exactly for stabilizing "
        "elements")
def _chk_spin_conjugacy(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(25)
    worst = _Running()
    closest = _Running(np.inf, min)
    for _ in range(n):
        space = su.random_admissible_space(rng, ctx.eps)
        sp = su.so5_splitting(space, ctx.eps)
        alg = sg.stabilizer_algebra(space, ctx.eps)
        g = sg.exp_element(alg.T @ rng.standard_normal(alg.shape[0]))
        image = sg.adjoint_form(g, sp.su2_minus, ctx.eps)
        worst.add(nx.subspace_distance(image, sp.su2_minus, ctx.eps))
        h = _draw_until(lambda: sg.random_spin(rng, eps=ctx.eps),
                        lambda h: nx.subspace_distance(
                            h.apply(space.v_basis), space.v_basis, ctx.eps) > 0.1)
        image = sg.adjoint_form(h, sp.su2_minus, ctx.eps)
        closest.add(nx.subspace_distance(image, sp.su2_minus, ctx.eps))
    status = "PASS" if worst.value <= ctx.eps and closest.value > 1e-3 else "FAIL"
    detail = (f"stabilizing elements preserve the algebra (residual "
              f"{worst.value:.1e}); elements moving the plane move it (closest "
              f"distance {closest.value:.3f})")
    return (status, worst.value, n, detail)


@_check("34-spin-conjugation-direction",
        "direction probe: conjugation carries the algebra of V to the algebra "
        "of gV")
def _chk_spin_conjugation_direction(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(15)
    forward = _Running()
    backward = _Running(np.inf, min)
    for _ in range(n):
        space = su.random_admissible_space(rng, ctx.eps)
        sp = su.so5_splitting(space, ctx.eps)
        g = sg.random_spin(rng, eps=ctx.eps)
        image = sg.adjoint_form(g, sp.su2_minus, ctx.eps)
        moved = su.so5_splitting(sg.act_on_space(g, space, ctx.eps, rng=rng),
                                 ctx.eps)
        moved_back = su.so5_splitting(
            sg.act_on_space(g.inverse(), space, ctx.eps, rng=rng), ctx.eps)
        forward.add(nx.subspace_distance(image, moved.su2_minus, ctx.eps))
        backward.add(nx.subspace_distance(image, moved_back.su2_minus, ctx.eps))
    detail = ("direction probe: with Ad(g)w realized as g.w.g^-1, the "
              "algebra of V maps onto the algebra of gV (residual "
              f"{forward.value:.1e}); the g^-1 V variant misses by "
              f"{backward.value:.3f}")
    return ("NOTE", forward.value, n, detail)


@_check("35-spin-quaternion-commute",
        "the quaternion action commutes with the group action")
def _chk_spin_quaternion_commute(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(50)
    triple = qt.global_triple(ctx.eps)
    worst = _Running()
    for _ in range(n):
        g = sg.random_spin(rng, eps=ctx.eps)
        psi = cl.random_unit_spinor(rng)
        worst.add(*(_norm(op(g.matrix @ psi) - g.matrix @ op(psi))
                    for op in triple.ops()))
    space = su.random_admissible_space(rng, ctx.eps)
    adapted = qt.adapted_triple(space, ctx.eps)
    stab_worst = _Running()
    for _ in range(ctx.count(10)):
        h = sg.random_stabilizer_element(space, rng, eps=ctx.eps)
        psi = cl.random_unit_spinor(rng)
        stab_worst.add(*(_norm(op(h.matrix @ psi) - h.matrix @ op(psi))
                         for op in adapted.ops()))
    worst.add(stab_worst.value)
    detail = ("the global triple commutes with every element; the "
              "plane-adapted triple commutes with the plane's stabilizer "
              f"(residual {stab_worst.value:.1e})")
    return _verdict(worst.value, ctx.eps, n, detail)


# --- torsion ---------------------------------------------------------------

@_sampled("36-torsion-roundtrip",
          "derivative data decompose and reconstruct exactly with a lawful "
          "endomorphism split",
          50, "decompose and reconstruct invert each other, and the "
              "endomorphism split has the stated trace and "
              "(anti)commutation behaviour")
def _chk_torsion_roundtrip(ctx, rng, k) -> Sample:
    space = su.random_admissible_space(rng, ctx.eps)
    nabla = ts.random_nabla(space, rng, scale=float(rng.uniform(0.5, 2.0)))
    dec = ts.decompose(nabla, space, ctx.eps)
    yield dec.residual
    rec = ts.reconstruct(dec, space, ctx.eps)
    yield _absmax(rec.derivatives - nabla.derivatives)
    js = qt.triple_on_distribution(space, ctx.eps).j_matrices
    rebuilt = dec.lambda0 * np.eye(4) + dec.s0
    for a in range(3):
        rebuilt = rebuilt + dec.lambdas[a] * js[a] + dec.sigma[a]
    yield _absmax(rebuilt - dec.s_d)
    yield abs(float(np.trace(dec.s0)))
    for a in range(3):
        yield _absmax(dec.s0 @ js[a] - js[a] @ dec.s0)
        yield abs(float(np.trace(js[a].T @ dec.sigma[a]))) / 4.0
        yield _absmax(dec.sigma[a] @ js[a] - js[a] @ dec.sigma[a])
        for b in range(3):
            if b != a:
                yield _absmax(dec.sigma[a] @ js[b] + js[b] @ dec.sigma[a])


@_check("37-torsion-dimension-audit",
        "the 35 derivative parameters map bijectively to the listed components")
def _chk_torsion_dimension_audit(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    n = ctx.count(2)
    min_sigma = _Running(np.inf, min)
    rank_ok = True
    for _ in range(n):
        space = su.random_admissible_space(rng, ctx.eps)
        phi = ts.random_nabla(space, rng).phi
        zero = ts.decompose(
            ts.NablaDatum(phi=phi, derivatives=np.zeros((5, 4), dtype=complex)),
            space, ctx.eps)
        cols = []
        for p in range(35):
            s_matrix = np.zeros((4, 5))
            beta = np.zeros((3, 5))
            if p < 20:
                s_matrix[p % 4, p // 4] = 1.0
            else:
                q = p - 20
                beta[q % 3, q // 3] = 1.0
            datum = ts.reconstruct(
                ts.TorsionDecomposition(
                    phi=phi, s_matrix=s_matrix, beta=beta, z=zero.z,
                    f=zero.f, s_d=zero.s_d, beta_d=zero.beta_d,
                    lambda0=0.0, lambdas=zero.lambdas, s0=zero.s0,
                    sigma=zero.sigma, residual=0.0),
                space, ctx.eps)
            dec = ts.decompose(datum, space, ctx.eps)
            cols.append(np.concatenate([
                [dec.lambda0], dec.lambdas, dec.s0.ravel(), dec.sigma.ravel(),
                dec.z, dec.f, dec.beta_d.ravel()]))
        m = np.array(cols).T
        min_sigma.add(np.linalg.svd(m, compute_uv=False)[34])
        rank_ok = rank_ok and nx.numerical_rank(m, ctx.eps) == 35
    status = "PASS" if rank_ok and min_sigma.value > 1e-6 else "FAIL"
    detail = (f"the 35 input parameters map to the listed components with "
              f"smallest singular value {min_sigma.value:.3f}")
    return (status, min_sigma.value, n, detail)


@_check("38-torsion-invariance",
        "S and the rotation forms are fiber-rotation invariant")
def _chk_torsion_invariance(ctx: CheckContext) -> Outcome:
    rng = ctx.rng()
    data = ctx.count(15)
    rotations = ctx.count(5)
    worst = _Running()
    for _ in range(data):
        space = su.random_admissible_space(rng, ctx.eps)
        nabla = ts.random_nabla(space, rng)
        dec = ts.decompose(nabla, space, ctx.eps)
        om = ts.omega_decompose(nabla, space, ctx.eps)
        for _ in range(rotations):
            a = cl.random_unit_vector(rng, 4)
            rotated = ts.rotate_spinor_datum(a, nabla, space, ctx.eps)
            dec_a = ts.decompose(rotated, space, ctx.eps)
            worst.add(_absmax(dec_a.s_matrix - dec.s_matrix))
            om_a = ts.omega_decompose(rotated, space, ctx.eps)
            worst.add(_absmax(om_a.omega - om.omega),
                      _absmax(om_a.omega_zeta - om.omega_zeta))
    return _verdict(worst.value, ctx.eps, data * rotations,
                    "the tangential component S and the rotation forms are "
                    "unchanged when the base spinor is rotated inside its "
                    "quaternionic fiber")


@_sampled("39-torsion-beta-law",
          "beta transforms by the displayed quaternion rotation matrix",
          25, "rotating the spinor multiplies beta by the displayed "
              "special-orthogonal matrix, which is a quaternion "
              "homomorphism with Hopf-type first-row quadratics")
def _chk_torsion_beta_law(ctx, rng, k) -> Sample:
    space = su.random_admissible_space(rng, ctx.eps)
    nabla = ts.random_nabla(space, rng)
    dec = ts.decompose(nabla, space, ctx.eps)
    a = cl.random_unit_vector(rng, 4)
    rotated = ts.rotate_spinor_datum(a, nabla, space, ctx.eps)
    dec_a = ts.decompose(rotated, space, ctx.eps)
    r = ts.rotation_from_quaternion(a, ctx.eps)
    yield _absmax(dec_a.beta - r @ dec.beta)
    yield _absmax(dec_a.beta - ts.transform_beta(a, dec.beta, ctx.eps))
    yield _absmax(r.T @ r - np.eye(3))
    yield abs(float(np.linalg.det(r)) - 1.0)
    b = cl.random_unit_vector(rng, 4)
    yield _absmax(ts.rotation_from_quaternion(ts.quaternion_product(b, a), ctx.eps)
                  - ts.rotation_from_quaternion(b, ctx.eps) @ r)
    h = qt.hopf(*a, eps=ctx.eps)
    yield _absmax(r[0] - np.array([h[0], -h[1], h[2]]))


@_sampled("40-torsion-omega-split",
          "the rotation forms live in su(2)+ and split along the Reeb direction",
          25, "each rotation form lies in su(2)+, solves w.phi = sum_k "
              "beta_k j_k phi, and splits exactly into its tangential "
              "part plus the Reeb component times the zeta form")
def _chk_torsion_omega_split(ctx, rng, k) -> Sample:
    space = su.random_admissible_space(rng, ctx.eps)
    nabla = ts.random_nabla(space, rng)
    dec = ts.decompose(nabla, space, ctx.eps)
    om = ts.omega_decompose(nabla, space, ctx.eps)
    sp = su.so5_splitting(space, ctx.eps)
    triple = qt.adapted_triple(space, ctx.eps)
    jphis = np.array([op(nabla.phi) for op in triple.ops()])
    for i in range(5):
        yield _absmax(om.omega[i] - om.omega_d[i] - space.y[i] * om.omega_zeta)
        yield nx.distance_to_row_span(om.omega[i], sp.su2_plus, ctx.eps)
        target = dec.beta[:, i] @ jphis
        yield _norm(cl.form_action(om.omega[i], nabla.phi) - target)


@_sampled("41-torsion-intrinsic",
          "the intrinsic torsion cancels the derivatives with the stated parts",
          25, "the intrinsic torsion forms cancel the derivatives, "
              "their su(2)+ parts are the negated rotation forms, and "
              "their remaining parts are (J S(e_i))-flat wedge the "
              "Reeb covector")
def _chk_torsion_intrinsic(ctx, rng, k) -> Sample:
    space = su.random_admissible_space(rng, ctx.eps)
    nabla = ts.random_nabla(space, rng)
    xi = ts.intrinsic_torsion(nabla, space, ctx.eps)
    om = ts.omega_decompose(nabla, space, ctx.eps)
    dec = ts.decompose(nabla, space, ctx.eps)
    j = qt.complex_structure(nabla.phi, space, ctx.eps)
    for i in range(5):
        yield _norm(cl.form_action(xi.xi[i], nabla.phi) + nabla.derivatives[i])
        yield _absmax(xi.su2_plus_part[i] + om.omega[i])
        js = space.d_basis.T @ (j @ dec.s_matrix[:, i])
        yield _absmax(xi.r4_part[i] - cl.wedge_vectors(js, space.y))


# --- serialization ---------------------------------------------------------

@_sampled("42-io-roundtrip",
          "serialization round-trips every wire type exactly",
          25, "parse after emit is the identity for every wire type, "
              "including a pass through the JSON text layer", tol=0.0)
def _chk_io_roundtrip(ctx, rng, k) -> Sample:
    for encode, parse, draw in (
            (jsonio.encode_spinor, jsonio.parse_spinor, cl.random_unit_spinor),
            (jsonio.encode_vector, jsonio.parse_vector, cl.random_unit_vector),
            (jsonio.encode_two_form, jsonio.parse_two_form, cl.random_two_form)):
        value = draw(rng)
        yield _absmax(parse(json.loads(json.dumps(encode(value)))) - value)
    z = complex(*rng.standard_normal(2))
    wire = json.loads(json.dumps(jsonio.encode_complex(z)))
    yield abs(jsonio.parse_complex(wire) - z)


@_check("43-io-determinism",
        "equal seeds produce byte-identical serialized output")
def _chk_io_determinism(ctx: CheckContext) -> Outcome:
    def render(seed: int) -> str:
        rng = np.random.default_rng(seed)
        space = su.random_admissible_space(rng, ctx.eps)
        nabla = ts.random_nabla(space, rng)
        dec = ts.decompose(nabla, space, ctx.eps)
        return jsonio.dumps({
            "s_matrix": jsonio.encode_real_matrix(dec.s_matrix),
            "beta": jsonio.encode_real_matrix(dec.beta),
            "phi": jsonio.encode_spinor(dec.phi),
        })

    first = render(ctx.seed)
    second = render(ctx.seed)
    other = render(ctx.seed + 1)
    same = first == second
    differs = first != other
    status = "PASS" if same and differs else "FAIL"
    detail = ("equal seeds give byte-identical JSON; a different seed gives "
              "different bytes")
    return (status, 0.0 if same else 1.0, 3, detail)


REGISTRY: tuple[tuple[str, str, Check], ...] = tuple(_DECLARED)


def check_ids() -> tuple[str, ...]:
    return tuple(check_id for check_id, _, _ in REGISTRY)


def run_checks(eps: float = nx.EPS_DEFAULT, seed: int = 0,
               samples: int = 100) -> VerificationReport:
    """Run the whole registry and assemble the report, ordered by check id."""
    results = []
    for index, (check_id, claim, fn) in enumerate(REGISTRY):
        ctx = CheckContext(eps=eps, samples=samples, seed=seed, index=index)
        start = time.perf_counter()
        try:
            status, residual, used, detail = fn(ctx)
        except Exception as exc:  # noqa: BLE001 - any crash is a failure
            status = "FAIL"
            residual = -1.0
            used = 0
            detail = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(check_id=check_id, claim=claim,
                                   status=status, max_residual=float(residual),
                                   samples_used=used, detail=detail,
                                   elapsed=elapsed))
    results.sort(key=lambda r: r.check_id)
    return VerificationReport(eps=eps, seed=seed, samples=samples,
                              results=tuple(results))
