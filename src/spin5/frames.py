"""Frames attached to a single unit spinor.

A unit spinor phi determines:

* the Reeb vector y, the unique unit vector with y . phi = i*phi,
* the distribution D = y-orthogonal complement in R^5,
* the complex 2-plane V_phi = D . phi inside Delta,
* a partner spinor phi_tilde spanning the rest of V_phi-perp with phi,
* the real 5-dimensional space W_phi spanned by the e_i . phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from . import numerics as nx
from . import quaternionic as qt
from .errors import DerivationFailure, NonUnitSpinor, NumericalRankFailure


def rep_matrix(phi: np.ndarray) -> np.ndarray:
    """8x5 real matrix whose j-th column is e_j . phi in real coordinates.

    Its column space is W_phi; for a unit spinor the columns are
    orthonormal.  A (k, 4) stack of spinors gives a (k, 8, 5) stack.
    """
    images = (cl.vector_matrix(np.eye(5)) @ np.asarray(phi)[..., None, :, None])[..., 0]
    return np.swapaxes(cl.spinor_to_real(images), -1, -2)


def reeb_vector(phi: np.ndarray, eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """The unique unit vector y with y . phi = i*phi, in closed form."""
    phi = np.asarray(phi, dtype=complex)
    norm = nx.scale_safe_norm(phi)
    nx.require_unit(norm, eps, NonUnitSpinor, "spinor norm")
    images = cl.vector_matrix(np.eye(5)) @ phi   # e_k . phi: orthogonal, of norm |phi|
    y = (images.conj() @ (1j * phi)).real / norm**2   # Re<e_k . phi, i*phi> / |phi|^2
    res = float(np.linalg.norm(y @ images - 1j * phi))
    if not res <= eps:   # a NaN residual fails too
        raise NumericalRankFailure(
            f"i*phi is not in the image of the vector action, residual {res:.3e}")
    return y


def distribution_basis(y: np.ndarray, eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Deterministic orthonormal basis (rows) of the y-orthogonal complement.

    The standard basis vectors are projected off y, the one with the
    smallest remaining norm is discarded and the rest are orthonormalized
    in index order.
    """
    y = np.asarray(y, dtype=float)
    y = y / np.linalg.norm(y)
    proj = np.eye(5) - np.outer(y, y)
    candidates = [proj @ e for e in np.eye(5)]
    drop = int(np.argmin([np.linalg.norm(c) for c in candidates]))
    kept = [c for i, c in enumerate(candidates) if i != drop]
    return nx.orthonormalize_rows(np.array(kept), eps, require=4)


@dataclass(frozen=True)
class SpinorFrame:
    """Data canonically attached to a unit spinor."""

    phi: np.ndarray
    y: np.ndarray
    d_basis: np.ndarray        # (4, 5) orthonormal rows spanning D
    v_basis: np.ndarray        # (2, 4) complex orthonormal rows spanning V_phi
    w_basis: np.ndarray        # (5, 4) the spinors e_i . phi
    phi_tilde: np.ndarray      # unit spinor, V_phi-perp = span{phi, phi_tilde}


def build_frame(phi: np.ndarray, eps: float = nx.EPS_DEFAULT) -> SpinorFrame:
    """Construct the canonical frame of a unit spinor."""
    phi = np.asarray(phi, dtype=complex)
    y = reeb_vector(phi, eps)
    d_basis = distribution_basis(y, eps)

    images = cl.vector_matrix(d_basis) @ phi
    if nx.numerical_rank(images, eps) != 2:
        raise NumericalRankFailure("D . phi is not a complex 2-plane")
    v_basis = nx.canonical_complex_basis(images, 2, eps)

    w_basis = cl.vector_matrix(np.eye(5)) @ phi

    # phi_tilde = C conj(phi) spans the hermitian-orthogonal complement of
    # phi inside the +i eigenspace of the Reeb action.
    phi_tilde = nx.phase_normalize(
        qt.charge_conjugation(eps) @ phi.conj() / np.linalg.norm(phi), eps)
    worst = max(abs(cl.hermitian(phi_tilde, phi)), float(np.linalg.norm(
        cl.vector_matrix(y) @ phi_tilde - 1j * phi_tilde)))
    if worst > np.sqrt(eps):
        raise DerivationFailure(f"C conj(phi) breaks the partner laws by {worst:.3e}")

    return SpinorFrame(phi=phi, y=y, d_basis=d_basis, v_basis=v_basis,
                       w_basis=w_basis, phi_tilde=phi_tilde)
