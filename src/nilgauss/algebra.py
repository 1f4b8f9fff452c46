"""Metric 2-step nilpotent Lie algebras with a fixed orthonormal basis.

A structure tensor c[i, j, k] fixes the bracket [e_i, e_j] = sum_k c[i,j,k] e_k
on an orthonormal basis e_1 .. e_d.  By convention the leading q = d - l
indices span the horizontal subspace V and the trailing l indices span the
center Z, so the axioms of a 2-step algebra become index conditions on c:
the bracket of horizontal vectors lands in the trailing block, central
vectors bracket to zero, and some entry is nonzero.

All of the metric geometry is channelled through the skew maps

    J(z) : V -> V,    <J(z) x, y> = <[x, y], z>,

which this module exposes as ``j_matrix``.  Algebras are immutable
and every operation is a pure function, so instances can be shared freely.
The J maps of the basis, the connection, the curvature, the Ricci tensor
and the closed forms' layouts of the tensors are computed once per
instance, as read-only cached arrays, and go with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .schema import ConfigError, Field, Table, between, check

# J(z)^2 = -|z|^2 Id must hold to this tolerance for a Heisenberg-type algebra
H_TYPE_TOL = 1e-9
# each 2-step axiom must hold to this tolerance for ``validate``
AXIOM_TOL = 1e-10


def _read_only(arr) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    """The d x d identity, built once per size, read-only."""
    return _read_only(np.eye(d))


@dataclass(frozen=True, eq=False)
class NilpotentAlgebra:
    """2-step nilpotent Lie algebra with orthonormal basis and split center.

    Vectors are plain float arrays of length ``dim_total`` holding
    coordinates in the fixed basis.
    """

    dim_total: int
    dim_center: int
    bracket_tensor: np.ndarray  # c[i, j, k], zero-based indices

    def __post_init__(self):
        if self.dim_center < 1:
            raise ValueError("dim_center must be at least 1")
        if self.dim_center >= self.dim_total:
            raise ValueError("dim_center must be smaller than dim_total")
        tensor = np.asarray(self.bracket_tensor, dtype=float)
        d = self.dim_total
        if tensor.shape != (d, d, d):
            raise ValueError(f"bracket tensor must have shape {(d, d, d)}")
        object.__setattr__(self, "bracket_tensor", _read_only(tensor))

    @property
    def dim_v(self) -> int:
        """Dimension q of the horizontal subspace."""
        return self.dim_total - self.dim_center

    @property
    def n(self) -> int:
        """Dimension of a hypersurface in the group, dim_total - 1."""
        return self.dim_total - 1

    @cached_property
    def j_tensor(self) -> np.ndarray:
        """j[k] = J(e_k) as a full d x d matrix, for every basis vector e_k."""
        return _read_only(np.einsum("ijk->kji", self.bracket_tensor))

    @cached_property
    def connection_tensor(self) -> np.ndarray:
        """g[a, b, k]: grad_{e_a} e_b = sum_k g[a, b, k] e_k (Koszul formula)."""
        c = self.bracket_tensor
        return _read_only(
            0.5 * (c - np.einsum("akb->abk", c) - np.einsum("bka->abk", c))
        )

    @cached_property
    def curvature_tensor(self) -> np.ndarray:
        """r[a, b, c, k]: R(e_a, e_b) e_c = sum_k r[a, b, c, k] e_k.

        From the definition R(a, b) = grad_a grad_b - grad_b grad_a - grad_[a, b],
        which for constant connection coefficients composes coefficient arrays.
        """
        g = self.connection_tensor
        nested = np.einsum("bcm,amk->abck", g, g)
        return _read_only(
            nested - nested.transpose(1, 0, 2, 3)
            - np.einsum("abm,mck->abck", self.bracket_tensor, g)
        )

    @cached_property
    def curvature_rows(self) -> np.ndarray:
        """The curvature tensor as a (d^2, d^2) matrix: rows (a, b), columns (c, k)."""
        return self.curvature_tensor.reshape(self.dim_total**2, -1)

    @cached_property
    def layouts(self) -> tuple[np.ndarray, ...]:
        """The bracket and curvature tensors c[a, b, k], R[a, b, c, k] laid out as the matrices
        the closed forms multiply row stacks by: ad, with [X, x] = X @ (x @ ad) reshaped (d, d);
        rows (b, k) to a and rows (a, k) to b of c; rows (b, c) to (a, k) of R."""
        d = self.dim_total
        c, r = self.bracket_tensor, self.curvature_tensor
        return tuple(_read_only(arr) for arr in (
            c.transpose(1, 0, 2).reshape(d, d * d), c.reshape(d, d * d).T,
            c.transpose(0, 2, 1).reshape(d * d, d), r.transpose(1, 2, 0, 3).reshape(d * d, d * d),
        ))

    @cached_property
    def ricci_matrix(self) -> np.ndarray:
        """Ric[a, b] from the closed blocks, not as a trace of the curvature.

        Horizontal block sum_k J(z_k)^2 / 2 over the central basis, central
        block -Tr(J(z_a) J(z_b)) / 4, mixed blocks zero.
        """
        q = self.dim_v
        jz = self.j_tensor[q:, :q, :q]
        ric = np.zeros((self.dim_total, self.dim_total))
        ric[:q, :q] = 0.5 * np.einsum("kij,kjl->il", jz, jz)
        ric[q:, q:] = -0.25 * np.einsum("aij,bji->ab", jz, jz)
        return _read_only(ric)

    @cached_property
    def is_h_type(self) -> bool:
        """Heisenberg type, decided once per algebra."""
        return is_heisenberg_type(self)

    @cached_property
    def is_heisenberg(self) -> bool:
        """Heisenberg algebra: H-type with a one-dimensional center."""
        return self.dim_center == 1 and self.is_h_type

    def j_matrix(self, z) -> np.ndarray:
        """Matrix of J(z) acting on full-length vectors (zero off V)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim_total,):
            raise ValueError("central argument must have length dim_total")
        return np.einsum("k,kji->ji", z, self.j_tensor)


def heisenberg(m: int) -> NilpotentAlgebra:
    """The 2m+1 dimensional algebra with relations [K_i, L_j] = delta_ij Z.

    Basis order K_1..K_m, L_1..L_m, Z; the center is the line through Z.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    d = 2 * m + 1
    c = np.zeros((d, d, d))
    for i in range(m):
        c[i, m + i, d - 1] = 1.0
        c[m + i, i, d - 1] = -1.0
    return NilpotentAlgebra(dim_total=d, dim_center=1, bracket_tensor=c)


@dataclass(frozen=True)
class Violation:
    name: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def names(self) -> list[str]:
        return [v.name for v in self.violations]


def validate(alg: NilpotentAlgebra) -> ValidationReport:
    """Check the 2-step axioms; violations are data, not exceptions.

    The "true center" check stacks the J matrices of the central basis
    vectors: a horizontal vector killed by all of them would commute with
    the whole algebra, so the declared center would be too small.  That
    is detected through the smallest singular value of the stack.
    """
    c = alg.bracket_tensor
    q = alg.dim_v
    found = []

    antisym = np.abs(c + np.transpose(c, (1, 0, 2))).max()
    if antisym > AXIOM_TOL:
        found.append(Violation("antisymmetry", float(antisym)))

    into_v = np.abs(c[:, :, :q]).max() if q > 0 else 0.0
    if into_v > AXIOM_TOL:
        found.append(Violation("bracket lands in center", float(into_v)))

    central_rows = max(np.abs(c[q:, :, :]).max(), np.abs(c[:, q:, :]).max())
    if central_rows > AXIOM_TOL:
        found.append(Violation("center is central", float(central_rows)))

    top = np.abs(c).max()
    if top <= AXIOM_TOL:
        found.append(Violation("non-abelian", float(top)))

    stacked = alg.j_tensor[q:, :q, :q].reshape(-1, q)
    smin = np.linalg.svd(stacked, compute_uv=False)[-1]
    if smin <= AXIOM_TOL:
        found.append(Violation("true center", float(smin)))

    return ValidationReport(tuple(found))


def is_heisenberg_type(alg: NilpotentAlgebra) -> bool:
    """True when J(z)^2 = -|z|^2 Id on V for every central z, within H_TYPE_TOL.

    J(z)^2 is quadratic in z, so checking the central basis vectors and
    all sums of two of them polarizes the identity to the whole center.
    """
    q = alg.dim_v
    eye = np.eye(q)
    jz = alg.j_tensor[q:, :q, :q]
    ia, ib = np.triu_indices(len(jz), 1)
    pairs = jz[ia] + jz[ib]  # J(z_a + z_b) for a < b
    worst = max(
        np.abs(jz @ jz + eye).max(),
        np.abs(pairs @ pairs + 2.0 * eye).max(initial=0.0),
    )
    return worst <= H_TYPE_TOL


BRACKET = Table(
    {**{key: Field("integer", True, span=between(1)) for key in "ijk"}, "c": Field("number", True)},
    name="bracket {}", unknown="a bracket takes no {}", missing="a bracket needs {!r}",
)
# an algebra given by its structure constants
ALGEBRA = Table(
    {"dim_total": Field("integer", True, span=between(2)),
     "dim_center": Field("integer", True, span=between(1)),
     "brackets": Field("list", default=[], items=Field("object", items=BRACKET))},
    name="algebra {}", unknown="an inline algebra takes no {}", missing="malformed algebra document: no {!r}",
)


def algebra_from_json(data: dict) -> NilpotentAlgebra:
    """Build an algebra from the JSON description.

    Expected document: ``{"dim_total": d, "dim_center": l,
    "brackets": [{"i": .., "j": .., "k": .., "c": ..}, ...]}`` with
    one-based indices and only i < j entries; the antisymmetric mirror
    is filled in automatically.  A document that ``ALGEBRA`` does not
    describe raises ConfigError, a ValueError, naming every problem.
    """
    problems = check(data, Field("object", items=ALGEBRA), "algebra")
    if problems:
        raise ConfigError(problems)
    d = data["dim_total"]
    c = np.zeros((d, d, d))
    with np.errstate(over="ignore"):  # a sum beyond float range is rejected below
        for ent in data.get("brackets", []):
            i, j, k = ent["i"], ent["j"], ent["k"]
            if max(i, j, k) > d:
                raise ValueError(f"bracket entry index out of range: {ent}")
            if i >= j:
                raise ValueError(f"bracket entries must have i < j, got i={i}, j={j}")
            c[i - 1, j - 1, k - 1] += ent["c"]
            c[j - 1, i - 1, k - 1] -= ent["c"]
    if not np.isfinite(c).all():
        raise ValueError("bracket entries with the same i, j, k sum beyond float range")
    return NilpotentAlgebra(dim_total=d, dim_center=data["dim_center"], bracket_tensor=c)
