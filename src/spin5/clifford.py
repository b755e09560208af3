"""Clifford algebra Cl(5) acting on the spinor space Delta = C^4.

Conventions, fixed once for the whole package:

* gamma(i)*gamma(j) + gamma(j)*gamma(i) = -2*delta_ij*Id, all generators
  anti-Hermitian, volume element gamma(1)...gamma(5) = -i*Id.  The sign of
  the volume element is forced by the action table of the generators: the
  products e_12, e_34 and e_5 each send s_1 to i*s_1, so the volume sends
  s_1 to i^3 s_1 = -i s_1.
* hermitian(phi, psi) is complex linear in the first slot and conjugate
  linear in the second; inner(phi, psi) is its real part.
* A k-form sum_{i1<...<ik} a_I e_I acts as sum_I a_I gamma(i1)...gamma(ik).
* interior product: (x . w)(v) = w(x, v).
* Musical isomorphisms use the Euclidean metric, so vectors and 1-form
  coefficient lists are identified entrywise.

All exact integer identities (anticommutation, volume) hold bit-exactly in
float arithmetic because every entry of the generators is 0, 1, -1, i or -i.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, TypeVar

import numpy as np

from .errors import InputError

I = 1j

# Generators of Cl(5) on C^4.  Kept as a module-level table so that the
# self-test suite can substitute a deliberately broken table and confirm
# that verification fails loudly.  The arrays are read-only: a table is
# changed by rebinding _GAMMA, which is what the per-table caches key on.
_GAMMA = (
    np.array([[0, 0, 0, I], [0, 0, I, 0], [0, I, 0, 0], [I, 0, 0, 0]], dtype=complex),
    np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex),
    np.array([[0, 0, -I, 0], [0, 0, 0, I], [-I, 0, 0, 0], [0, I, 0, 0]], dtype=complex),
    np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex),
    np.array([[I, 0, 0, 0], [0, I, 0, 0], [0, 0, -I, 0], [0, 0, 0, -I]], dtype=complex),
)
for _g in _GAMMA:
    _g.flags.writeable = False
del _g

#: Index pairs of the standard two-form basis, lexicographic.
TWO_FORM_PAIRS = ((1, 2), (1, 3), (1, 4), (1, 5),
                  (2, 3), (2, 4), (2, 5),
                  (3, 4), (3, 5), (4, 5))

DIM_V = 5
DIM_SPINOR = 4
DIM_TWO_FORMS = len(TWO_FORM_PAIRS)

# 0-based row and column of each pair, for the two-form coordinate maps.
_PAIR_ROWS, _PAIR_COLS = np.array(TWO_FORM_PAIRS).T - 1

_T = TypeVar("_T")


def _read_only(value: _T) -> _T:
    """Mark every array in value, through tuples and dataclass fields, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _read_only(getattr(value, field.name))
    return value


def _per_table(build: Callable[[tuple], _T]) -> Callable[[], _T]:
    """Cache build(table) for the generator table currently bound to _GAMMA.

    The cache entry holds the table object itself, so an identity test
    cannot confuse it with a later table, and is replaced in one assignment
    when _GAMMA is rebound: a substituted table is seen at once and the
    original one again after it is restored.  The cached value is read-only.
    """
    entry: list = [(None, None)]

    @functools.wraps(build)
    def cached() -> _T:
        table, value = entry[0]
        if table is not _GAMMA:
            table = _GAMMA
            value = _read_only(build(table))
            entry[0] = (table, value)
        return value

    return cached


def _per_space(build: Callable[..., _T]) -> Callable[..., _T]:
    """Cache build(space, eps) on the space, per eps and generator table.

    The spaces are frozen and unhashable, so each one keeps its entries in
    its own instance __dict__, keyed on (build, eps): eps sets the rank
    cutoffs and residual guards of the derivation.  As in _per_table an
    entry holds the table it was built with and is replaced in one
    assignment when _GAMMA is rebound.  The cached value is read-only.
    """
    (default_eps,) = build.__defaults__

    @functools.wraps(build)
    def cached(space, eps: float = default_eps) -> _T:
        entries = vars(space).setdefault("_per_space", {})
        table, value = entries.get((build, eps), (None, None))
        if table is not _GAMMA:
            table = _GAMMA
            value = _read_only(build(space, eps))
            entries[build, eps] = (table, value)
        return value

    return cached


@_per_table
def _gamma_stacks(table: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The (5, 4, 4) generator stack and (10, 4, 4) gamma(i) gamma(j) stack."""
    gammas = np.stack(table)
    products = np.stack([table[i - 1] @ table[j - 1] for i, j in TWO_FORM_PAIRS])
    return gammas, products


def _apply_stack(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k] stack[k] as one flat matmul; shape (..., 4, 4)."""
    flat = coeffs @ stack.reshape(len(stack), DIM_SPINOR * DIM_SPINOR)
    return flat.reshape(coeffs.shape[:-1] + (DIM_SPINOR, DIM_SPINOR))


def gamma(i: int) -> np.ndarray:
    """Return the i-th Clifford generator, 1-based."""
    if not 1 <= i <= DIM_V:
        raise InputError(f"generator index must be in 1..5, got {i}")
    return _GAMMA[i - 1]


def standard_spinor(i: int) -> np.ndarray:
    """Standard basis spinor s_i, 1-based."""
    s = np.zeros(DIM_SPINOR, dtype=complex)
    s[i - 1] = 1.0
    return s


def standard_vector(i: int) -> np.ndarray:
    """Standard basis vector e_i of R^5, 1-based."""
    v = np.zeros(DIM_V)
    v[i - 1] = 1.0
    return v


def vector_matrix(x: np.ndarray) -> np.ndarray:
    """Matrix of Clifford multiplication by x; a (k, 5) stack gives (k, 4, 4)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != DIM_V:
        raise InputError(f"vector must have shape (..., 5), got {x.shape}")
    return _apply_stack(x, _gamma_stacks()[0])


def vector_action(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Clifford product x . phi."""
    return vector_matrix(x) @ np.asarray(phi, dtype=complex)


def hermitian(phi: np.ndarray, psi: np.ndarray) -> complex:
    """Hermitian product, conjugate linear in the second argument."""
    return complex(np.vdot(np.asarray(psi), np.asarray(phi)))


def inner(phi: np.ndarray, psi: np.ndarray) -> float:
    """Real inner product Re hermitian(phi, psi)."""
    return hermitian(phi, psi).real


def volume_action() -> np.ndarray:
    """Matrix of the volume element gamma(1)...gamma(5); equals -i*Id."""
    out = np.eye(DIM_SPINOR, dtype=complex)
    for g in _GAMMA:
        out = out @ g
    return out


def spinor_to_real(phi: np.ndarray) -> np.ndarray:
    """Real coordinates (Re phi, Im phi) in R^8, along the last axis.

    A (k, 4) stack gives (k, 8), so spinor_to_real(M @ phi).T is the real
    8xk matrix whose columns are the images M_j phi of a (k, 4, 4) stack M.
    """
    phi = np.asarray(phi, dtype=complex)
    return np.concatenate([phi.real, phi.imag], axis=-1)


# ---------------------------------------------------------------------------
# Two-forms as coefficient vectors of length 10.
# ---------------------------------------------------------------------------

def two_form_to_matrix(w: np.ndarray) -> np.ndarray:
    """Antisymmetric 5x5 matrix W with W[i,j] = w(e_i, e_j); takes (..., 10) stacks."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 0 or w.shape[-1] != DIM_TWO_FORMS:
        raise InputError(f"two-form must have shape (..., 10), got {w.shape}")
    m = np.zeros(w.shape[:-1] + (DIM_V, DIM_V))
    m[..., _PAIR_ROWS, _PAIR_COLS] = w
    m[..., _PAIR_COLS, _PAIR_ROWS] = -w
    return m


def matrix_to_two_form(m: np.ndarray) -> np.ndarray:
    """Coefficient vector of an antisymmetric 5x5 matrix; takes (..., 5, 5) stacks."""
    return np.asarray(m, dtype=float)[..., _PAIR_ROWS, _PAIR_COLS]


def wedge_vectors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two-form coefficients of x^flat wedge y^flat; the leading axes broadcast."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (x[..., _PAIR_ROWS] * y[..., _PAIR_COLS]
            - x[..., _PAIR_COLS] * y[..., _PAIR_ROWS])


def two_form_gamma_products() -> np.ndarray:
    """Read-only stack of the 10 products gamma(i) @ gamma(j), lexicographic pairs."""
    return _gamma_stacks()[1]


def two_form_matrix_rep(w: np.ndarray) -> np.ndarray:
    """4x4 matrix of the action of a two-form; (k, 10) stacks give (k, 4, 4)."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 0 or w.shape[-1] != DIM_TWO_FORMS:
        raise InputError(f"two-form must have shape (..., 10), got {w.shape}")
    return _apply_stack(w, _gamma_stacks()[1])


def interior_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coefficients of the 1-form x . w, i.e. (x . w)(v) = w(x, v); stacks broadcast."""
    x = np.asarray(x, dtype=float)
    return (x[..., None, :] @ two_form_to_matrix(w))[..., 0, :]


# ---------------------------------------------------------------------------
# General k-forms with a tiny exterior algebra, used for the compatibility
# checks between the two-form triple and the volume form.
# ---------------------------------------------------------------------------

def _sort_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort indices, returning the permutation sign; 0 sign on repeats."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return idx, 0
    order = sorted(idx)
    perm = list(idx)
    sign = 1
    for pos in range(len(order)):
        j = perm.index(order[pos])
        if j != pos:
            perm[pos], perm[j] = perm[j], perm[pos]
            sign = -sign
    return tuple(order), sign


@dataclass(frozen=True)
class KForm:
    """Real k-form on R^5 as a map {strictly increasing index tuple: coeff}."""

    degree: int
    coeffs: Mapping[tuple[int, ...], float]

    @staticmethod
    def build(degree: int, items: Iterable[tuple[tuple[int, ...], float]]) -> "KForm":
        acc: dict[tuple[int, ...], float] = {}
        for idx, c in items:
            key, sign = _sort_sign(tuple(idx))
            if sign == 0:
                continue
            if len(key) != degree:
                raise InputError(f"index tuple {idx} does not match degree {degree}")
            if not all(1 <= i <= DIM_V for i in key):
                raise InputError(f"indices must lie in 1..5, got {idx}")
            acc[key] = acc.get(key, 0.0) + sign * float(c)
        return KForm(degree, acc)

    @staticmethod
    def from_vector(x: np.ndarray) -> "KForm":
        x = np.asarray(x, dtype=float)
        return KForm.build(1, (((i + 1,), x[i]) for i in range(DIM_V)))

    @staticmethod
    def from_two_form(w: np.ndarray) -> "KForm":
        w = np.asarray(w, dtype=float)
        return KForm.build(2, zip(TWO_FORM_PAIRS, w))

    def wedge(self, other: "KForm") -> "KForm":
        items = []
        for idx_a, a in self.coeffs.items():
            for idx_b, b in other.coeffs.items():
                items.append((idx_a + idx_b, a * b))
        return KForm.build(self.degree + other.degree, items)

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise InputError("cannot add forms of different degree")
        return KForm.build(self.degree,
                           list(self.coeffs.items()) + list(other.coeffs.items()))

    def scale(self, c: float) -> "KForm":
        return KForm.build(self.degree, ((k, c * v) for k, v in self.coeffs.items()))

    def norm(self) -> float:
        if not self.coeffs:
            return 0.0
        return float(np.sqrt(sum(v * v for v in self.coeffs.values())))

    def coefficient(self, *idx: int) -> float:
        key, sign = _sort_sign(tuple(idx))
        return sign * self.coeffs.get(key, 0.0)

    def matrix_rep(self) -> np.ndarray:
        """4x4 matrix of the Clifford action of this form."""
        out = np.zeros((DIM_SPINOR, DIM_SPINOR), dtype=complex)
        for idx, c in self.coeffs.items():
            term = np.eye(DIM_SPINOR, dtype=complex)
            for i in idx:
                term = term @ _GAMMA[i - 1]
            out = out + c * term
        return out


def form_action(form, phi: np.ndarray) -> np.ndarray:
    """Clifford action of a form on a spinor.

    Accepts a KForm, a two-form coefficient vector of shape (10,), or a
    1-form coefficient vector of shape (5,).
    """
    phi = np.asarray(phi, dtype=complex)
    if isinstance(form, KForm):
        return form.matrix_rep() @ phi
    form = np.asarray(form, dtype=float)
    if form.shape == (DIM_TWO_FORMS,):
        return two_form_matrix_rep(form) @ phi
    if form.shape == (DIM_V,):
        return vector_matrix(form) @ phi
    raise InputError(f"unsupported form shape {form.shape}")


# ---------------------------------------------------------------------------
# Random samples.
# ---------------------------------------------------------------------------

def random_unit_vector(rng: np.random.Generator, dim: int = DIM_V) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def random_unit_spinor(rng: np.random.Generator) -> np.ndarray:
    while True:
        phi = rng.standard_normal(DIM_SPINOR) + 1j * rng.standard_normal(DIM_SPINOR)
        n = np.linalg.norm(phi)
        if n > 1e-6:
            return phi / n


def random_two_form(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(DIM_TWO_FORMS)
