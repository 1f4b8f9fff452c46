"""Coordinate realizations of the simply connected group.

Both built-in models share one structure: the left-invariant frame at a
point p is A(p) = I + L(p) with L linear in p and L(p)^2 = 0, so the
inverse frame is exactly I - L(p), and the coordinate Christoffels come
exactly from the algebra's connection.

* ``exp_model``: exponential coordinates for any 2-step algebra, with the
  truncated product p * q = p + q + [p, q]/2 and frame columns
  e_a + [p, e_a]/2.
* ``nil_polarized_model``: the 3-dimensional model with frame fields
  d/dx, d/dy + x d/dz, d/dz over the Heisenberg algebra and the product
  (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y').  Included so x-dependent
  surface quantities come out in these exact coordinate expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NilpotentAlgebra, _identity, _read_only, heisenberg


@dataclass(frozen=True, eq=False)
class CoordinateModel:
    """Group model with frame A(p) = I + L(p), L linear nilpotent.

    ``frame_lin[k, j, i]`` is the coefficient of p_i in entry (k, j) of
    L(p); ``product_bilin[k, i, j]`` the coefficient of p_i q_j in the
    quadratic part of the product.

    ``frame_correction``, ``frame_field``, ``frame_inverse`` and
    ``christoffels`` take one point p (d,) or a stack (N, d), and return a
    stack for a stack.
    """

    algebra: NilpotentAlgebra
    frame_lin: np.ndarray
    product_bilin: np.ndarray
    name: str = "model"

    def __post_init__(self):
        d = self.algebra.dim_total
        fl = np.ascontiguousarray(np.asarray(self.frame_lin, dtype=float))
        pb = np.ascontiguousarray(np.asarray(self.product_bilin, dtype=float))
        if fl.shape != (d, d, d) or pb.shape != (d, d, d):
            raise ValueError(f"model tensors must have shape {(d, d, d)}")
        # L(p) L(p) = 0 for all p, i.e. the symmetrized composition vanishes
        comp = np.einsum("kmi,mjl->kjil", fl, fl)
        if np.abs(comp + comp.transpose(0, 1, 3, 2)).max() > 1e-12:
            raise ValueError("frame correction is not nilpotent")
        fl.flags.writeable = False
        pb.flags.writeable = False
        object.__setattr__(self, "frame_lin", fl)
        object.__setattr__(self, "product_bilin", pb)
        # frame_lin and the connection g[a, b, k] laid out once as the blocks the stages
        # multiply by: L(p) = _lin_rows @ p, and a normal eta times _normal_rows gives
        # sum_k eta_k frame_lin[k] and the matrix (b, a) of <g_ab, eta>, side by side
        g = self.algebra.connection_tensor.transpose(2, 1, 0)
        object.__setattr__(self, "_lin_rows", fl.reshape(d * d, d))
        object.__setattr__(self, "_normal_rows", _read_only(np.concatenate(
            [fl.reshape(d, d * d), g.reshape(d, d * d)], axis=1)))

    @property
    def dim(self) -> int:
        return self.algebra.dim_total

    def frame_correction(self, p) -> np.ndarray:
        """L(p); column a holds the coordinate correction of field e_a."""
        p = np.asarray(p)
        return (self._lin_rows @ p[..., None]).reshape(p.shape[:-1] + (self.dim, self.dim))

    def frame_field(self, p) -> np.ndarray:
        return _identity(self.dim) + self.frame_correction(p)

    def frame_inverse(self, p) -> np.ndarray:
        return _identity(self.dim) - self.frame_correction(p)

    def christoffels(self, p) -> np.ndarray:
        """Gamma[k, i, j] of the coordinate metric, symmetric in (i, j).

        nabla_{d_i} d_j from the algebra's connection: the coordinate field
        d_j has frame coefficients Ainv[:, j], whose d_i is -L_i[:, j].
        """
        ainv = self.frame_inverse(p)
        conn = np.einsum("...bi,bca->...aic", ainv, self.algebra.connection_tensor)
        frame = conn @ ainv[..., None, :, :] - np.einsum("aji->aij", self.frame_lin)
        return np.einsum("...ka,...aij->...kij", self.frame_field(p), frame)


def exp_model(alg: NilpotentAlgebra) -> CoordinateModel:
    """Exponential-coordinate model of the simply connected group."""
    c = alg.bracket_tensor
    frame_lin = 0.5 * np.einsum("ijk->kji", c)  # column j gets [p, e_j]/2
    product_bilin = 0.5 * np.einsum("ijk->kij", c)
    return CoordinateModel(alg, frame_lin, product_bilin, name="exp")


def nil_polarized_model() -> CoordinateModel:
    """Polarized coordinates on the 3-dimensional Heisenberg group."""
    alg = heisenberg(1)
    frame_lin = np.zeros((3, 3, 3))
    frame_lin[2, 1, 0] = 1.0  # second frame field picks up x d/dz
    product_bilin = np.zeros((3, 3, 3))
    product_bilin[2, 0, 1] = 1.0  # z-component gains x y'
    return CoordinateModel(alg, frame_lin, product_bilin, name="nil_polarized")
