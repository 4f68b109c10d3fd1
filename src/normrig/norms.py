"""Non-Euclidean lp norms on the plane and their support functionals.

For 1 < p < oo the plane with the lp norm is smooth and strictly
convex, so every nonzero z has a unique support functional phi_z: the
linear functional with phi_z(z) = ||z||^2 whose dual norm equals ||z||.
Concretely

    phi_z = ||z||_p^(2-p) * (sgn(z1)|z1|^(p-1), sgn(z2)|z2|^(p-1)),

acting on points by the dot product.  p = 2 is excluded on purpose:
the Euclidean plane obeys a different edge-count arithmetic and none
of the equivalences in this package apply to it.

norm_batch and support_batch act on the rows of an (N, 2) array in one
pass: their divisions skip zero rows rather than mask them out, so the
zero vector, which has no support functional, maps to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import InputError


class NormError(InputError):
    """Invalid norm parameter or vector."""


@dataclass(frozen=True)
class LpPlane:
    """The plane under ||z||_p = (|z1|^p + |z2|^p)^(1/p), 1 < p < oo, p != 2."""

    exponent: float

    def __post_init__(self):
        p = self.exponent
        if not (isinstance(p, (int, float)) and math.isfinite(p)):
            raise NormError(f"exponent must be a finite number, got {p!r}")
        if not p > 1:
            raise NormError(f"exponent must exceed 1, got {p}")
        if p == 2:
            raise NormError("p = 2 is the Euclidean plane, which is excluded")
        object.__setattr__(self, "exponent", float(p))

    def norm_batch(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=np.float64)
        a = np.abs(zs)
        mx = a.max(axis=-1, keepdims=True)
        scaled = np.divide(a, mx, out=np.zeros_like(a), where=mx > 0)
        return mx[..., 0] * (scaled ** self.exponent).sum(axis=-1) ** (1.0 / self.exponent)

    def support_batch(self, zs: np.ndarray) -> np.ndarray:
        """Row-wise support functionals; the zero vector maps to zero."""
        zs = np.asarray(zs, dtype=np.float64)
        norms = self.norm_batch(zs)[..., None]
        # Degree-1 homogeneity: evaluate on the unit sphere, then
        # rescale.  Keeps p = 7 well-behaved for very short and very
        # long vectors alike.
        unit = np.divide(zs, norms, out=np.zeros_like(zs), where=norms > 0)
        return norms * np.sign(unit) * np.abs(unit) ** (self.exponent - 1.0)

    def spec_string(self) -> str:
        p = self.exponent
        return f"lp:{int(p)}" if p == int(p) else f"lp:{p}"


def parse_norm(text: str) -> LpPlane:
    """Parse a norm spec such as 'lp:4' or 'lp:1.5'."""
    body = text.strip().lower()
    if not body.startswith("lp:"):
        raise NormError(f"unknown norm spec {text!r} (expected 'lp:<p>')")
    try:
        p = float(body[3:])
    except ValueError:
        raise NormError(f"bad exponent in norm spec {text!r}") from None
    return LpPlane(p)


DEFAULT_PLANE = LpPlane(4.0)
