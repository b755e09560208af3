"""Quaternionic structures on Delta and the Hopf correspondence.

Delta carries an antilinear map, unique up to phase, that anticommutes with
every vector and squares to -Id once normalized.  Together with
multiplication by i it generates a quaternionic triple.  Restricting along
an admissible plane V produces, for each unit spinor phi in V-perp, a
complex structure J on the distribution D characterized by

    x . (i phi) = J(x) . phi        for x in D,

and the assignment phi -> J is a Hopf fibration onto a 2-sphere of
complex structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import clifford as cl
from . import numerics as nx
from .errors import (DerivationFailure, InputError, NonUnitInput,
                     NonUnitSpinor, NumericalRankFailure)

if TYPE_CHECKING:  # pragma: no cover
    from .su2 import AdmissibleSpace


@cl._per_table
def _conjugation_law(gammas: tuple) -> tuple[np.ndarray, float]:
    """C = gamma(2) gamma(4) and its worst law residual."""
    c = gammas[1] @ gammas[3]
    laws = [c @ g.conj() + g @ c for g in gammas]
    # np.max keeps a NaN; the builtin max drops it unless it comes first
    worst = np.max([np.linalg.norm(m) for m in laws + [c @ c.conj() + np.eye(4)]])
    return c, float(worst)


def charge_conjugation(eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """The antilinear structure of Delta as a read-only matrix C, acting by C conj(.).

    C is the closed form gamma(2) gamma(4), checked against the laws that
    define it: C conj(g_k) = -g_k C for all five generators and
    C conj(C) = -Id, each within sqrt(eps).  C and its residual are computed
    once per generator table; the check runs on every call.  Registry
    check 20 derives the solution space of the anticommutation laws and
    confirms that it is one complex dimension spanned by C.
    """
    c, worst = _conjugation_law()
    if not worst <= np.sqrt(eps):
        raise DerivationFailure(
            f"gamma(2) gamma(4) breaks the conjugation laws by {worst:.3e}")
    return c


@cl._per_space
def _complement_projector(space: "AdmissibleSpace",
                          eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Orthogonal projector onto V-perp, as nx.distance_to_row_span builds it."""
    return nx.projector(nx.row_space_basis(space.vperp_basis, eps))


def _complement_spinor(phi: np.ndarray, space: "AdmissibleSpace",
                       eps: float) -> np.ndarray:
    """phi as a complex array, required to be a unit spinor in V-perp."""
    phi = np.asarray(phi, dtype=complex)
    nx.require_unit(nx.scale_safe_norm(phi), eps, NonUnitSpinor, "spinor norm")
    off = float(np.linalg.norm(phi - _complement_projector(space, eps) @ phi))
    if off > np.sqrt(eps):
        raise InputError("spinor must lie in the plane's complement")
    return phi


@dataclass(frozen=True)
class AntilinearOp:
    """A real-linear operator on Delta: phi -> M phi or M conj(phi)."""

    matrix: np.ndarray
    antilinear: bool

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        phi = np.asarray(phi, dtype=complex)
        return self.matrix @ (phi.conj() if self.antilinear else phi)

    def compose(self, other: "AntilinearOp") -> "AntilinearOp":
        m = self.matrix @ (other.matrix.conj() if self.antilinear else other.matrix)
        return AntilinearOp(m, self.antilinear != other.antilinear)


@dataclass(frozen=True)
class StructureTriple:
    """Anticommuting triple k1, k2, k3 = k1 k2 with each square -Id."""

    k1: AntilinearOp
    k2: AntilinearOp
    k3: AntilinearOp

    def ops(self) -> tuple[AntilinearOp, AntilinearOp, AntilinearOp]:
        return (self.k1, self.k2, self.k3)

    def apply_quaternion(self, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """a0 phi + a1 k1(phi) + a2 k2(phi) + a3 k3(phi)."""
        a = np.asarray(a, dtype=float)
        phi = np.asarray(phi, dtype=complex)
        return (a[0] * phi + a[1] * self.k1(phi)
                + a[2] * self.k2(phi) + a[3] * self.k3(phi))


def global_triple(eps: float = nx.EPS_DEFAULT) -> StructureTriple:
    """Quaternionic triple on all of Delta: i, the antilinear structure, both."""
    k1 = AntilinearOp(1j * np.eye(4, dtype=complex), False)
    k2 = AntilinearOp(charge_conjugation(eps), True)
    return StructureTriple(k1, k2, k1.compose(k2))


@cl._per_space
def adapted_triple(space: "AdmissibleSpace",
                   eps: float = nx.EPS_DEFAULT) -> StructureTriple:
    """Triple adapted to an admissible plane.

    The antilinear structure acts with opposite signs on the plane and on
    its complement; with that flip the whole triple commutes with Clifford
    multiplication by vectors tangent to the distribution.  Computed once
    per space, eps and generator table; the matrices are read-only.
    """
    c = charge_conjugation(eps)
    q = nx.projector(space.v_basis) - nx.projector(space.vperp_basis)
    j1 = AntilinearOp(1j * np.eye(4, dtype=complex), False)
    j2 = AntilinearOp(c @ q.conj(), True)
    return StructureTriple(j1, j2, j1.compose(j2))


def complex_structure(phi: np.ndarray, space: "AdmissibleSpace",
                      eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Matrix on D-coordinates of the structure J with x.(i phi) = J(x).phi.

    phi must be a unit spinor in the orthogonal complement of the plane.
    """
    images = cl.vector_matrix(space.d_basis) @ _complement_spinor(phi, space, eps)
    j, res = nx.project_columns(cl.spinor_to_real(images).T,
                                cl.spinor_to_real(1j * images).T)
    if not res <= np.sqrt(eps):
        raise NumericalRankFailure(
            f"defining system unsolvable, residual {res:.3e}")
    return j


def hopf(a: float, b: float, c: float, d: float,
         eps: float = nx.EPS_DEFAULT) -> tuple[float, float, float]:
    """Hopf fibration S^3 -> S^2 in the coordinates used by hopf_matrix."""
    nx.require_unit(a * a + b * b + c * c + d * d, eps, NonUnitInput,
                    "squared norm of the quadruple")
    return (a * a + b * b - c * c - d * d,
            2.0 * (a * d - b * c),
            2.0 * (a * c + b * d))


def hopf_matrix(alpha: float, beta: float, gamma: float,
                eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Complex structure on R^4 parametrized by a point of S^2."""
    nx.require_unit(alpha * alpha + beta * beta + gamma * gamma, eps,
                    NonUnitInput, "squared norm of the sphere point")
    return np.array([[0.0, alpha, -beta, -gamma],
                     [-alpha, 0.0, -gamma, beta],
                     [beta, gamma, 0.0, alpha],
                     [gamma, -beta, -alpha, 0.0]])


def hopf_coordinates(phi: np.ndarray,
                     space: "AdmissibleSpace") -> tuple[float, float, float, float]:
    """Coordinates (a, b, c, d) of a complement spinor in the canonical basis."""
    phi = np.asarray(phi, dtype=complex)
    u = cl.hermitian(phi, space.vperp_basis[0])
    v = cl.hermitian(phi, space.vperp_basis[1])
    return (u.real, u.imag, v.real, v.imag)


def induced_map(t: np.ndarray, phi: np.ndarray, space: "AdmissibleSpace",
                eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Endomorphism T of D with T(x) . phi = t(x . phi).

    t is a real endomorphism of the plane in the real basis
    (v1, i v1, v2, i v2) built from the canonical complex basis.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise InputError(f"endomorphism must be 4x4, got {t.shape}")
    images = cl.vector_matrix(space.d_basis) @ _complement_spinor(phi, space, eps)
    c = images @ space.v_basis.conj().T      # row p: <b_p . phi, v_1>, <., v_2>
    coords = np.stack([c.real, c.imag], axis=-1).reshape(4, 4) @ t.T
    w = (coords[:, 0::2] + 1j * coords[:, 1::2]) @ space.v_basis
    out, res = nx.project_columns(cl.spinor_to_real(images).T,
                                  cl.spinor_to_real(w).T)
    if not res <= np.sqrt(eps):
        raise NumericalRankFailure(
            f"induced endomorphism undefined, residual {res:.3e}")
    return out


@dataclass(frozen=True)
class DistributionTriple:
    """Anticommuting complex structures on D with their defining spinors."""

    j_matrices: np.ndarray     # (3, 4, 4) on D-coordinates, J3 = J1 J2
    spinors: np.ndarray        # (3, 4) unit spinors in V-perp
    omegas: np.ndarray         # (3, 10) ambient two-forms, zero off D


def _two_form_on_distribution(j: np.ndarray, d_basis: np.ndarray) -> np.ndarray:
    """Ambient coefficients of w(x, y) = <x, J y> on D, extended by zero."""
    m = d_basis.T @ j @ d_basis
    return cl.matrix_to_two_form(m)


@cl._per_space
def triple_on_distribution(space: "AdmissibleSpace",
                           eps: float = nx.EPS_DEFAULT) -> DistributionTriple:
    """Quaternionic triple of complex structures on the distribution.

    The defining spinors are built from the canonical complement basis
    (psi1, psi2) as psi1, (psi1 + i psi2)/sqrt(2) and (psi1 - psi2)/sqrt(2);
    their structures anticommute pairwise and multiply like quaternions.
    Computed once per space, eps and generator table; the arrays are
    read-only.
    """
    psi1, psi2 = space.vperp_basis
    phis = np.array([psi1,
                     (psi1 + 1j * psi2) / np.sqrt(2.0),
                     (psi1 - psi2) / np.sqrt(2.0)])
    j1 = complex_structure(phis[0], space, eps)
    j2 = complex_structure(phis[1], space, eps)
    js = np.array([j1, j2, j1 @ j2])
    omegas = np.array([_two_form_on_distribution(j, space.d_basis) for j in js])
    return DistributionTriple(j_matrices=js, spinors=phis, omegas=omegas)


@dataclass(frozen=True)
class StructureQuadruplet:
    """Differential-form description (alpha, w1, w2, w3) of the structure."""

    alpha: cl.KForm            # the 1-form dual to the Reeb vector
    omegas: np.ndarray         # (3, 10)
    volume: cl.KForm           # the 4-form v with w_k wedge w_l = delta_kl v


def structure_quadruplet(space: "AdmissibleSpace",
                         eps: float = nx.EPS_DEFAULT) -> StructureQuadruplet:
    """The form quadruplet of an admissible plane."""
    triple = triple_on_distribution(space, eps)
    alpha = cl.KForm.from_vector(space.y)
    w1 = cl.KForm.from_two_form(triple.omegas[0])
    return StructureQuadruplet(alpha=alpha, omegas=triple.omegas,
                               volume=w1.wedge(w1))
