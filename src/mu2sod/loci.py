"""Sector decomposition and fixed loci of diagonal sign actions.

One group element splits the coordinates into two *sectors*: the
coordinates it leaves alone (the + sector) and those it negates (the -
sector).  The locus fixed by the element is assembled from the sectors:

* affine: the fixed locus is the linear subspace spanned by the
  coordinates in the + sector;
* projective: each sector T contributes the subspace P(V_T) (a reduced
  point when |T| = 1), since all of its coordinates rescale by the same
  sign;
* Fermat quadric: each sector T contributes the sub-quadric
  sum_{i in T} x_i^2 = 0, which degenerates for small sectors;
  x^2 = 0 has no projective point and x^2 + y^2 = 0 is a pair of
  reduced points.

Pieces carry the combinatorial data downstream actually needs: geometry
tag, supporting coordinate set and dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import ActionSpec, dot

AFFINE = "affine"
PROJ = "projective"
POINT = "point"
FERMAT = "fermat"
POINT_PAIR = "point_pair"
EMPTY = "empty"
_CODIM = {AFFINE: 0, PROJ: 1, POINT: 1, FERMAT: 2, POINT_PAIR: 2}  # dim = size - codim


@dataclass(frozen=True, slots=True)
class LocusPiece:
    """One geometric piece of a fixed locus, supported on a coordinate set."""

    kind: str
    support: tuple[int, ...]
    dim: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(sorted(self.support)))
        n = len(self.support)
        if self.kind == PROJ and n < 2:
            raise ValueError("projective piece needs at least 2 coordinates")
        if self.kind == POINT and n != 1:
            raise ValueError("a reduced point is supported on one coordinate")
        if self.kind == FERMAT and n < 3:
            raise ValueError("Fermat piece needs at least 3 coordinates")
        if self.kind == POINT_PAIR and n != 2:
            raise ValueError("point pair is supported on two coordinates")
        object.__setattr__(self, "dim", -1 if self.kind == EMPTY else n - _CODIM.get(self.kind, n))


def fixed_pieces(spec: ActionSpec, g: int, mask: int | None = None) -> list[LocusPiece]:
    """Pieces of the locus fixed by the element ``g``.

    The coordinates split into the + sector, then the - sector of ``g``;
    an empty sector is left out.  Affine: the + sector only.  Projective:
    a point or a projective space per sector.  Quadric: an empty piece, a
    point pair or a Fermat quadric per sector, so the pieces partition the
    coordinates as on P^n (``inertia.components`` skips the empty ones).
    ``mask``, if given, is the sign mask of ``g``: bit i set when g negates coordinate i.
    """
    if mask is None:
        mask = sum(dot(chi, g) << i for i, chi in enumerate(spec.characters))
    plus = [i for i in range(spec.num_coords) if not mask >> i & 1]
    if spec.kind == "affine":
        return [LocusPiece(AFFINE, plus)]
    minus = [i for i in range(spec.num_coords) if mask >> i & 1]
    pieces = []
    for coords in filter(None, (plus, minus)):
        n = len(coords)
        if spec.kind == "projective":
            kind = POINT if n == 1 else PROJ
        else:
            kind = EMPTY if n == 1 else POINT_PAIR if n == 2 else FERMAT
        pieces.append(LocusPiece(kind, coords))
    return pieces
