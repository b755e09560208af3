"""Pointwise decomposition of spinor derivative data.

Given a unit spinor phi in the complement of an admissible plane and a
candidate derivative in each coordinate direction (tangent to the unit
sphere at phi), the derivative splits uniquely as

    nabla_x phi = S(x) . phi + sum_k beta_k(x) j_k(phi)

with S(x) tangent to the distribution and j_k the adapted quaternionic
triple.  The tangential endomorphism S_D refines further along the
commutation behaviour with the distribution triple J_1, J_2, J_3, and the
beta block transforms under the quaternionic rotation of phi by the
standard SO(3) representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from . import numerics as nx
from .errors import (BasisDegeneracy, DerivationFailure, InputError,
                     NonOrthogonalDerivative, NonUnitQuaternion, NonUnitSpinor)
from .quaternionic import (StructureTriple, _complement_spinor, adapted_triple,
                           triple_on_distribution)
from .su2 import AdmissibleSpace, random_complement_spinor, so5_splitting


@dataclass(frozen=True)
class NablaDatum:
    """A spinor with one candidate derivative per coordinate direction."""

    phi: np.ndarray            # (4,) complex unit spinor
    derivatives: np.ndarray    # (5, 4) complex, row i is nabla_{e_i} phi


def validate_nabla(nabla: NablaDatum, eps: float = nx.EPS_DEFAULT) -> None:
    phi = np.asarray(nabla.phi, dtype=complex)
    nx.require_unit(nx.scale_safe_norm(phi), eps, NonUnitSpinor, "base spinor norm")
    derivs = np.asarray(nabla.derivatives, dtype=complex)
    if derivs.shape != (5, 4):
        raise InputError(f"derivatives must have shape (5, 4), got {derivs.shape}")
    radial = (derivs @ phi.conj()).real   # Re<d_i, phi>, as cl.inner
    for i in np.flatnonzero(~(np.abs(radial) <= eps)):   # the bound is never below eps
        if not abs(radial[i]) <= eps * max(1.0, nx.scale_safe_norm(derivs[i])):
            raise NonOrthogonalDerivative(
                f"derivative {i + 1} has radial component {radial[i]:.3e}")


def random_nabla(space: AdmissibleSpace, rng: np.random.Generator,
                 scale: float = 1.0) -> NablaDatum:
    """Random valid datum with base spinor in the plane's complement."""
    phi = random_complement_spinor(space, rng)
    derivs = scale * (rng.standard_normal((5, 4))
                      + 1j * rng.standard_normal((5, 4)))
    derivs = derivs - np.outer([cl.inner(d, phi) for d in derivs], phi)
    return NablaDatum(phi=phi, derivatives=derivs)


def _tangent_basis(phi: np.ndarray, space: AdmissibleSpace,
                   triple: StructureTriple, eps: float) -> np.ndarray:
    """8x7 real matrix of the orthonormal tangent frame {b_p . phi} + {j_k phi}."""
    images = np.vstack([cl.vector_matrix(space.d_basis) @ phi,
                        [op(phi) for op in triple.ops()]])
    basis = cl.spinor_to_real(images).T
    gram = float(np.abs(basis.T @ basis - np.eye(7)).max())
    if not gram <= np.sqrt(eps):   # NaN fails too
        raise BasisDegeneracy(f"tangent frame not orthonormal, Gram residual {gram:.3e}")
    return basis


@dataclass(frozen=True)
class TorsionDecomposition:
    """All components of a decomposed derivative datum."""

    phi: np.ndarray
    s_matrix: np.ndarray       # (4, 5) D-coordinates of S(e_i) in column i
    beta: np.ndarray           # (3, 5) the three covectors
    z: np.ndarray              # (4,) D-coordinates of S(y)
    f: np.ndarray              # (3,) beta evaluated on y
    s_d: np.ndarray            # (4, 4) S restricted to D
    beta_d: np.ndarray         # (3, 4) beta restricted to D
    lambda0: float             # identity component of S_D
    lambdas: np.ndarray        # (3,) components along J_1, J_2, J_3
    s0: np.ndarray             # (4, 4) traceless part commuting with all J_k
    sigma: np.ndarray          # (3, 4, 4) J_k-commuting, J_l-anticommuting parts
    residual: float            # reconstruction residual of the raw split


def split_endomorphism(s_d: np.ndarray, js: np.ndarray,
                       eps: float = nx.EPS_DEFAULT) -> tuple[float, np.ndarray,
                                                             np.ndarray, np.ndarray]:
    """Split a 4x4 matrix along the commutation types of a J-triple.

    Returns (lambda0, lambdas, s0, sigma) with

        S = lambda0 Id + s0 + sum_k (lambda_k J_k + sigma_k),

    where s0 is traceless and commutes with every J_k, and sigma_k is
    orthogonal to J_k, commutes with J_k and anticommutes with the other
    two.  The projections are averages of J-conjugations; the signs are
    forced by those (anti)commutation requirements.
    """
    s_d = np.asarray(s_d, dtype=float)
    js = np.asarray(js, dtype=float)
    squares = np.linalg.norm(js @ js + np.eye(4), axis=(-2, -1))
    if not squares.max() <= np.sqrt(eps):   # NaN fails too
        raise InputError("triple entries must square to -Id")
    conj = js @ s_d @ js
    lambda0 = float(np.trace(s_d)) / 4.0
    lambdas = -np.trace(js @ s_d, axis1=-2, axis2=-1) / 4.0
    s0 = (s_d - conj.sum(axis=0)) / 4.0 - lambda0 * np.eye(4)
    sigma = (s_d + conj.sum(axis=0) - 2.0 * conj) / 4.0 - lambdas[:, None, None] * js
    return lambda0, lambdas, s0, sigma


def _require_solved(residual: float, target: np.ndarray, eps: float,
                    what: str) -> None:
    """Raise DerivationFailure unless a solve reproduced its target; NaN fails."""
    if not residual <= np.sqrt(eps) * max(1.0, float(np.abs(target).max())):
        raise DerivationFailure(f"{what} residual {residual:.3e}")


def _form_split(nabla: NablaDatum, space: AdmissibleSpace, eps: float,
                what: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Validate a datum, then project nabla_i phi on the images of su(2)+ + D^y.

    Returns the 7 basis forms (su2_plus, then r4), the 7x5 coefficients c
    with (c[:, i] @ basis) . phi = nabla_i phi, and the worst column residual.
    """
    validate_nabla(nabla, eps)
    phi = _complement_spinor(nabla.phi, space, eps)
    splitting = so5_splitting(space, eps)
    basis = np.vstack([splitting.su2_plus, splitting.r4])
    derivs = np.asarray(nabla.derivatives, dtype=complex)
    a = cl.spinor_to_real(cl.two_form_matrix_rep(basis) @ phi).T
    c, worst = nx.project_columns(a, cl.spinor_to_real(derivs).T)
    _require_solved(worst, derivs, eps, what)
    return basis, c, worst


def decompose(nabla: NablaDatum, space: AdmissibleSpace,
              eps: float = nx.EPS_DEFAULT) -> TorsionDecomposition:
    """Split a derivative datum into its tangential and rotational parts.

    Solves nabla_i phi = S(e_i).phi + beta(e_i).j(phi) on the tangent frame.
    """
    validate_nabla(nabla, eps)
    phi = _complement_spinor(nabla.phi, space, eps)
    derivs = np.asarray(nabla.derivatives, dtype=complex)
    coeffs, residual = nx.project_columns(
        _tangent_basis(phi, space, adapted_triple(space, eps), eps),
        cl.spinor_to_real(derivs).T)
    _require_solved(residual, derivs, eps, "derivative split")
    s_matrix = coeffs[:4]
    beta = coeffs[4:]
    z = s_matrix @ space.y
    f = beta @ space.y
    s_d = s_matrix @ space.d_basis.T
    beta_d = beta @ space.d_basis.T

    js = triple_on_distribution(space, eps).j_matrices
    lambda0, lambdas, s0, sigma = split_endomorphism(s_d, js, eps)
    return TorsionDecomposition(phi=phi, s_matrix=s_matrix, beta=beta, z=z,
                                f=f, s_d=s_d, beta_d=beta_d, lambda0=lambda0,
                                lambdas=lambdas, s0=s0, sigma=sigma,
                                residual=residual)


def reconstruct(dec: TorsionDecomposition, space: AdmissibleSpace,
                eps: float = nx.EPS_DEFAULT) -> NablaDatum:
    """Rebuild the derivative datum from s_matrix and beta."""
    jphis = np.array([op(dec.phi) for op in adapted_triple(space, eps).ops()])
    tangent = cl.vector_matrix(dec.s_matrix.T @ space.d_basis) @ dec.phi
    return NablaDatum(phi=dec.phi, derivatives=tangent + dec.beta.T @ jphis)


@dataclass(frozen=True)
class OmegaDecomposition:
    """The su(2)+ valued rotation forms of a derivative datum."""

    omega: np.ndarray          # (5, 10) form for X = e_i in row i
    omega_zeta: np.ndarray     # (10,) form for X = y
    omega_d: np.ndarray        # (5, 10) form for the tangential part of e_i
    residual: float


def omega_decompose(nabla: NablaDatum, space: AdmissibleSpace,
                    eps: float = nx.EPS_DEFAULT) -> OmegaDecomposition:
    """Forms w_X in su(2)+ with w_X . phi = sum_k beta_k(X) j_k(phi).

    w_X is the su(2)+ part of the projection of nabla_X phi, linear in X.
    """
    basis, c, worst = _form_split(nabla, space, eps, "rotation form")
    omega = c[:3].T @ basis[:3]
    return OmegaDecomposition(
        omega=omega, omega_zeta=space.y @ omega,
        omega_d=space.d_basis.T @ (space.d_basis @ omega), residual=worst)


def quaternion_product(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Hamilton product b*a in (scalar, i, j, k) coordinates."""
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    return np.array([
        b[0] * a[0] - b[1] * a[1] - b[2] * a[2] - b[3] * a[3],
        b[0] * a[1] + b[1] * a[0] + b[2] * a[3] - b[3] * a[2],
        b[0] * a[2] - b[1] * a[3] + b[2] * a[0] + b[3] * a[1],
        b[0] * a[3] + b[1] * a[2] - b[2] * a[1] + b[3] * a[0],
    ])


def rotation_from_quaternion(a: np.ndarray,
                             eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """SO(3) matrix of conjugation by a unit quaternion."""
    a = np.asarray(a, dtype=float)
    if a.shape != (4,):
        raise InputError(f"quaternion must have shape (4,), got {a.shape}")
    nx.require_unit(float(a @ a), eps, NonUnitQuaternion,
                    "squared norm of the quaternion")
    a0, a1, a2, a3 = a
    return np.array([
        [a0 * a0 + a1 * a1 - a2 * a2 - a3 * a3,
         2.0 * (a1 * a2 - a0 * a3),
         2.0 * (a0 * a2 + a1 * a3)],
        [2.0 * (a1 * a2 + a0 * a3),
         a0 * a0 - a1 * a1 + a2 * a2 - a3 * a3,
         2.0 * (a2 * a3 - a0 * a1)],
        [2.0 * (a1 * a3 - a0 * a2),
         2.0 * (a2 * a3 + a0 * a1),
         a0 * a0 - a1 * a1 - a2 * a2 + a3 * a3],
    ])


def transform_beta(a: np.ndarray, beta: np.ndarray,
                   eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Beta block of the datum rotated by a unit quaternion."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3, 5):
        raise InputError(f"beta must have shape (3, 5), got {beta.shape}")
    return rotation_from_quaternion(a, eps) @ beta


def rotate_spinor_datum(a: np.ndarray, nabla: NablaDatum,
                        space: AdmissibleSpace,
                        eps: float = nx.EPS_DEFAULT) -> NablaDatum:
    """Apply the quaternion a through the adapted triple to phi and its data."""
    a = np.asarray(a, dtype=float)
    nx.require_unit(float(a @ a), eps, NonUnitQuaternion,
                    "squared norm of the quaternion")
    validate_nabla(nabla, eps)
    rows = adapted_triple(space, eps).apply_quaternion(
        a, np.vstack([nabla.phi, nabla.derivatives]))
    return NablaDatum(phi=rows[0], derivatives=rows[1:])


@dataclass(frozen=True)
class IntrinsicTorsion:
    """Two-forms in su(2)+ + D wedge y whose action cancels the derivatives."""

    xi: np.ndarray             # (5, 10)
    su2_plus_part: np.ndarray  # (5, 10)
    r4_part: np.ndarray        # (5, 10)
    residual: float


def intrinsic_torsion(nabla: NablaDatum, space: AdmissibleSpace,
                      eps: float = nx.EPS_DEFAULT) -> IntrinsicTorsion:
    """Solve xi_i . phi = -nabla_i phi inside su(2)+ + D wedge y."""
    basis, c, worst = _form_split(nabla, space, eps, "intrinsic torsion")
    return IntrinsicTorsion(xi=-c.T @ basis, su2_plus_part=-c[:3].T @ basis[:3],
                            r4_part=-c[3:].T @ basis[3:], residual=worst)
