"""Admissible 2-planes in Delta and the su(2) algebras attached to them.

A complex 2-plane V in Delta is admissible when it arises as V_phi for the
spinors phi in its orthogonal complement.  Two independent characterizations
are implemented: a spanning test against the spaces W_psi, and invariance
under the antilinear structure of Delta.  Admissible planes split so(5) into
two commuting su(2) algebras plus a 4-dimensional complement.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import clifford as cl
from . import numerics as nx
from . import quaternionic as qt
from .errors import (DegenerateSubspace, InputError, KernelDimensionError,
                     NotAdmissible)
from .frames import build_frame, rep_matrix


def annihilator(phi: np.ndarray, eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Orthonormal basis (rows) of the two-forms annihilating phi.

    The result is the kernel of the 8x10 real matrix of the two-form
    action evaluated at phi; for any nonzero spinor it is 3-dimensional.
    """
    m = cl.spinor_to_real(cl.two_form_gamma_products() @ np.asarray(phi)).T
    basis = nx.kernel_basis(m, eps)
    if basis.shape[0] != 3:
        raise KernelDimensionError(
            f"annihilator has dimension {basis.shape[0]}, expected 3")
    return basis


def spinor_in_span(psi: np.ndarray, basis: np.ndarray) -> float:
    """Distance from a spinor to the complex row span of basis."""
    return nx.distance_to_row_span(psi, basis)


@dataclass(frozen=True)
class AdmissibilityResult:
    verdict: bool
    spanning_test: bool        # V inside W_psi for sampled psi in V-perp
    conjugation_test: bool     # V invariant under the antilinear structure
    max_spanning_residual: float
    max_conjugation_residual: float


def is_admissible(v_basis: np.ndarray, eps: float = nx.EPS_DEFAULT,
                  samples: int = 20,
                  rng: np.random.Generator | None = None) -> AdmissibilityResult:
    """Test admissibility of the complex span of two spinors.

    Runs both characterizations and reports them separately; the verdict
    requires both.  The spanning test draws `samples` random unit spinors
    from the orthogonal complement, so at least one is required.
    """
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    basis = nx.row_space_basis(np.atleast_2d(np.asarray(v_basis, dtype=complex)), eps)
    if basis.shape[0] != 2:
        raise DegenerateSubspace(
            f"spanning set has complex dimension {basis.shape[0]}, expected 2")
    comp = nx.kernel_basis(basis.conj(), eps)

    tol = np.sqrt(eps)
    z = rng.standard_normal((samples, 2, 2))   # sample s: Re c = z[s, 0], Im c = z[s, 1]
    psi = (z[:, 0] + 1j * z[:, 1]) @ comp
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    _, max_span = nx.project_columns(rep_matrix(psi), cl.spinor_to_real(basis).T)
    spanning = max_span <= tol

    conj_op = qt.charge_conjugation(eps)
    max_conj = max(spinor_in_span(conj_op @ v.conj(), basis) for v in basis)
    conjugation = max_conj <= tol

    return AdmissibilityResult(verdict=spanning and conjugation,
                               spanning_test=spanning,
                               conjugation_test=conjugation,
                               max_spanning_residual=max_span,
                               max_conjugation_residual=max_conj)


@dataclass(frozen=True)
class AdmissibleSpace:
    """An admissible 2-plane with its canonical attached data."""

    v_basis: np.ndarray        # (2, 4) canonical complex orthonormal rows
    vperp_basis: np.ndarray    # (2, 4) canonical basis of the complement
    y: np.ndarray              # common Reeb vector of the complement spinors
    d_basis: np.ndarray        # (4, 5) orthonormal rows spanning D

    def __post_init__(self) -> None:
        # Read-only copies: the per-space caches can then never go stale.
        for field in fields(self):
            copy = cl._read_only(np.array(getattr(self, field.name)))
            object.__setattr__(self, field.name, copy)


def admissible_space(v_basis: np.ndarray, eps: float = nx.EPS_DEFAULT,
                     samples: int = 20,
                     rng: np.random.Generator | None = None) -> AdmissibleSpace:
    """Validate a supplied plane and return it as the space of a complement spinor.

    The plane must equal V_psi within sqrt(eps) for psi its first canonical
    complement spinor, which holds when its complement spinors share y.
    """
    result = is_admissible(v_basis, eps, samples, rng)
    if not result.verdict:
        raise NotAdmissible(
            f"spanning residual {result.max_spanning_residual:.3e}, "
            f"conjugation residual {result.max_conjugation_residual:.3e}")
    canon = nx.canonical_complex_basis(np.atleast_2d(v_basis), 2, eps)
    space = space_of_spinor(nx.complex_complement(canon, eps)[0], eps)
    if not nx.subspace_distance(space.v_basis, canon, eps) <= np.sqrt(eps):
        raise NotAdmissible("complement spinors disagree on the Reeb vector")
    return space


def space_of_spinor(phi: np.ndarray, eps: float = nx.EPS_DEFAULT) -> AdmissibleSpace:
    """The admissible space V_phi of a unit spinor, read off its frame."""
    fr = build_frame(phi, eps)
    perp = nx.canonical_complex_basis([fr.phi, fr.phi_tilde], 2, eps)
    return AdmissibleSpace(v_basis=fr.v_basis, vperp_basis=perp, y=fr.y,
                           d_basis=fr.d_basis)


@dataclass(frozen=True)
class So5Splitting:
    """Splitting of the two-forms attached to an admissible plane."""

    su2_minus: np.ndarray      # (3, 10) annihilator of the complement spinors
    su2_plus: np.ndarray       # (3, 10) annihilator of the plane's spinors
    r4: np.ndarray             # (4, 10) the forms b^flat wedge y^flat

    def stacked(self) -> np.ndarray:
        return np.vstack([self.su2_minus, self.su2_plus, self.r4])


@cl._per_space
def so5_splitting(space: AdmissibleSpace, eps: float = nx.EPS_DEFAULT) -> So5Splitting:
    """Decompose the 10 two-forms into su(2)- + su(2)+ + D wedge y.

    Computed once per space, eps and generator table; the arrays are read-only.
    """
    su2_minus = annihilator(space.vperp_basis[0], eps)
    su2_plus = annihilator(space.v_basis[0], eps)
    r4 = np.array([cl.wedge_vectors(b, space.y) for b in space.d_basis])
    return So5Splitting(su2_minus=su2_minus, su2_plus=su2_plus, r4=r4)


def dual_action_span(space: AdmissibleSpace, phi: np.ndarray,
                     eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Images of the su(2)+ basis acting on a spinor, as rows."""
    plus = so5_splitting(space, eps).su2_plus
    return cl.two_form_matrix_rep(plus) @ np.asarray(phi, dtype=complex)


def two_form_bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator bracket of two-forms under the so(5) identification."""
    ma = cl.two_form_to_matrix(a)
    mb = cl.two_form_to_matrix(b)
    return cl.matrix_to_two_form(ma @ mb - mb @ ma)


def random_complement_spinor(space: AdmissibleSpace,
                             rng: np.random.Generator) -> np.ndarray:
    """Random unit spinor in the plane's complement."""
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = space.vperp_basis.T @ c
    return phi / np.linalg.norm(phi)


def random_admissible_space(rng: np.random.Generator,
                            eps: float = nx.EPS_DEFAULT) -> AdmissibleSpace:
    """Admissible space of a random unit spinor."""
    return space_of_spinor(cl.random_unit_spinor(rng), eps)
