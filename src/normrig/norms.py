"""Non-Euclidean lp norms on the plane and their support functionals.

For 1 < p < oo the plane with the lp norm is smooth and strictly
convex, so every nonzero z has a unique support functional phi_z: the
linear functional with phi_z(z) = ||z||^2 whose dual norm equals ||z||.
Concretely

    phi_z = ||z||_p^(2-p) * (sgn(z1)|z1|^(p-1), sgn(z2)|z2|^(p-1)),

acting on points by the dot product.  p = 2 is excluded on purpose:
the Euclidean plane obeys a different edge-count arithmetic and none
of the equivalences in this package apply to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NormError(ValueError):
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

    @property
    def is_analytic(self) -> bool:
        p = self.exponent
        return p == int(p) and int(p) % 2 == 0

    def norm_batch(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=np.float64)
        a = np.abs(zs)
        mx = a.max(axis=-1)
        out = np.zeros_like(mx)
        nz = mx > 0
        scaled = a[nz] / mx[nz, None]
        out[nz] = mx[nz] * (scaled ** self.exponent).sum(axis=-1) ** (
            1.0 / self.exponent
        )
        return out

    def support_batch(self, zs: np.ndarray) -> np.ndarray:
        """Row-wise support functionals; the zero vector maps to zero."""
        zs = np.asarray(zs, dtype=np.float64)
        norms = self.norm_batch(zs)
        out = np.zeros_like(zs)
        nz = norms > 0
        # Degree-1 homogeneity: evaluate on the unit sphere, then
        # rescale.  Keeps p = 7 well-behaved for very short and very
        # long vectors alike.
        unit = zs[nz] / norms[nz, None]
        out[nz] = (
            norms[nz, None]
            * np.sign(unit)
            * np.abs(unit) ** (self.exponent - 1.0)
        )
        return out

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


# ---------------------------------------------------------------------------
# random placements
# ---------------------------------------------------------------------------


def random_placement(graph, rng: np.random.Generator, box_radius: float = 1.0):
    """Independent uniform points in the centred box, one per vertex."""
    pts = rng.uniform(-box_radius, box_radius, size=(graph.n, 2))
    return {v: pts[i] for i, v in enumerate(graph.vertices)}


def random_coincident_placement(
    graph, rng: np.random.Generator, box_radius: float = 1.0
):
    """Like random_placement, but the designated pair shares one point."""
    u, v = graph.require_pair()
    placement = random_placement(graph, rng, box_radius)
    placement[v] = placement[u].copy()
    return placement
