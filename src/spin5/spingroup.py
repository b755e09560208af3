"""Spin(5) as even words of unit vectors acting on Delta and on R^5.

A group element is stored both as its word and as the product of the
generator images.  Conjugation g L_x g^{-1} stays inside the image of the
vector map and defines the double cover Spin(5) -> SO(5); the induced
action moves admissible planes around and its stabilizers recover the
su(2) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import clifford as cl
from . import numerics as nx
from .errors import ConjugationNotVector, NonUnitGenerator, OddWord
from .frames import reeb_projectors
from .su2 import AdmissibleSpace, admissible_space


@dataclass(frozen=True)
class SpinElement:
    """Even product of unit vectors with its spinor representation matrix."""

    matrix: np.ndarray         # (4, 4) complex, unitary
    word: np.ndarray           # (n, 5) rows are the unit generator vectors

    def inverse(self) -> "SpinElement":
        return SpinElement(matrix=self.matrix.conj().T, word=self.word[::-1].copy())

    def __matmul__(self, other: "SpinElement") -> "SpinElement":
        return SpinElement(matrix=self.matrix @ other.matrix,
                           word=np.vstack([self.word, other.word]))

    def apply(self, spinors: np.ndarray) -> np.ndarray:
        """g phi for each spinor of a (..., 4) stack."""
        return (self.matrix @ np.asarray(spinors)[..., None])[..., 0]


def spin_element(word: Sequence[np.ndarray],
                 eps: float = nx.EPS_DEFAULT) -> SpinElement:
    """Build a group element from an even sequence of unit vectors."""
    vectors = [np.asarray(w, dtype=float) for w in word]
    if len(vectors) % 2 != 0:
        raise OddWord(f"word length {len(vectors)} is odd")
    m = np.eye(4, dtype=complex)
    for v in vectors:
        nx.require_unit(nx.scale_safe_norm(v), eps, NonUnitGenerator, "generator norm")
        m = m @ cl.vector_matrix(v)
    stacked = (np.array(vectors) if vectors
               else np.zeros((0, 5)))
    return SpinElement(matrix=m, word=stacked)


def identity_element() -> SpinElement:
    return spin_element([])


def random_spin(rng: np.random.Generator, length: int = 4,
                eps: float = nx.EPS_DEFAULT) -> SpinElement:
    """Random element as a word of `length` random unit vectors."""
    if length % 2 != 0:
        raise OddWord(f"word length {length} is odd")
    return spin_element([cl.random_unit_vector(rng) for _ in range(length)], eps)


def adjoint_vector(g: SpinElement, x: np.ndarray,
                   eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """The vector v with g (x . phi) = v . (g phi), from g L_x g^{-1}.

    A (..., 5) stack is conjugated at once; each row has its own residual bound.
    """
    x = np.asarray(x, dtype=float)
    m = g.matrix @ cl.vector_matrix(x) @ g.matrix.conj().T
    products = m[..., None, :, :] @ cl._gamma_stacks()[0]   # (..., 5, 4, 4)
    v = -np.trace(products, axis1=-2, axis2=-1).real / 4.0
    res = np.linalg.norm(cl.vector_matrix(v) - m, axis=(-2, -1))
    bound = np.sqrt(eps) * np.maximum(1.0, np.linalg.norm(x, axis=-1))
    if not np.all(res <= bound):   # NaN fails too
        raise ConjugationNotVector(
            f"conjugated operator is not a vector, residual {np.max(res):.3e}")
    return v


def adjoint_matrix(g: SpinElement, eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """5x5 rotation matrix of the induced action on R^5."""
    return adjoint_vector(g, np.eye(5), eps).T


def adjoint_form(g: SpinElement, w: np.ndarray,
                 eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Push a two-form, or a (..., 10) stack of them, along the induced rotation."""
    a = adjoint_matrix(g, eps)
    return cl.matrix_to_two_form(a @ cl.two_form_to_matrix(w) @ a.T)


def act_on_space(g: SpinElement, space: AdmissibleSpace,
                 eps: float = nx.EPS_DEFAULT,
                 rng: np.random.Generator | None = None) -> AdmissibleSpace:
    """Image of an admissible plane, revalidated and re-canonicalized."""
    return admissible_space(g.apply(space.v_basis), eps, rng=rng)


def stabilizer_algebra(space: AdmissibleSpace,
                       eps: float = nx.EPS_DEFAULT) -> np.ndarray:
    """Orthonormal basis (rows) of the two-forms whose action preserves V."""
    complement = reeb_projectors(space.y)[1]
    images = np.swapaxes(cl.two_form_gamma_products() @ space.v_basis.T, 1, 2)
    leak = (complement @ images[..., None])[..., 0]   # e_I . v_k off V
    return nx.kernel_basis(cl.spinor_to_real(leak).reshape(10, 16).T, eps)


def stabilizer_dimension(space: AdmissibleSpace,
                         eps: float = nx.EPS_DEFAULT) -> int:
    """Dimension of the two-form algebra preserving the plane (always 6)."""
    return int(stabilizer_algebra(space, eps).shape[0])


def exp_element(w: np.ndarray) -> SpinElement:
    """Exponential of a two-form acting on Delta, as a group element.

    The representation matrix of a real two-form is skew-hermitian, so the
    exponential is computed through a unitary eigendecomposition.  The
    resulting element carries an empty word; its inverse is still correct
    because the matrix is unitary.
    """
    a = cl.two_form_matrix_rep(np.asarray(w, dtype=float))
    vals, vecs = np.linalg.eigh(1j * a)
    m = vecs @ np.diag(np.exp(-1j * vals)) @ vecs.conj().T
    return SpinElement(matrix=m, word=np.zeros((0, 5)))


def random_stabilizer_element(space: AdmissibleSpace, rng: np.random.Generator,
                              pairs: int = 2,
                              eps: float = nx.EPS_DEFAULT) -> SpinElement:
    """Random element preserving the plane: an even word tangent to D.

    Clifford multiplication by a tangent vector swaps V and V-perp, so an
    even tangent word preserves both.
    """
    word = []
    for _ in range(2 * pairs):
        c = rng.standard_normal(4)
        v = space.d_basis.T @ (c / np.linalg.norm(c))
        word.append(v)
    return spin_element(word, eps)
