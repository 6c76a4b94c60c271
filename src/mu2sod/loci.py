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

A piece is a tuple (geometry tag, supporting coordinate set, dimension);
only a caller that builds one pays for sorting and checking its support.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import ActionSpec, dot

AFFINE = "affine"
PROJ = "projective"
POINT = "point"
FERMAT = "fermat"
POINT_PAIR = "point_pair"
EMPTY = "empty"
_CODIM = {AFFINE: 0, PROJ: 1, POINT: 1, FERMAT: 2, POINT_PAIR: 2}  # dim = size - codim
_BYTE_BITS = [tuple(i for i in range(8) if byte >> i & 1) for byte in range(256)]  # set bits
_new = tuple.__new__


def _set_bits(bits: int) -> tuple[int, ...]:
    """The positions of the set bits of ``bits`` >= 0, lowest first, a byte at a time."""
    if bits < 256:
        return _BYTE_BITS[bits]
    return (*_BYTE_BITS[bits & 255], *(8 + i for i in _set_bits(bits >> 8)))


class LocusPiece(namedtuple("LocusPiece", "kind support dim")):
    """One geometric piece of a fixed locus, supported on a coordinate set;
    ``dim`` follows from the other two and takes no part in hash or repr."""

    __slots__ = ()

    def __new__(cls, kind: str, support) -> LocusPiece:
        support = tuple(sorted(support))
        n = len(support)
        if kind == PROJ and n < 2:
            raise ValueError("projective piece needs at least 2 coordinates")
        if kind == POINT and n != 1:
            raise ValueError("a reduced point is supported on one coordinate")
        if kind == FERMAT and n < 3:
            raise ValueError("Fermat piece needs at least 3 coordinates")
        if kind == POINT_PAIR and n != 2:
            raise ValueError("point pair is supported on two coordinates")
        return _new(cls, (kind, support, -1 if kind == EMPTY else n - _CODIM.get(kind, n)))

    def __repr__(self) -> str:
        return f"LocusPiece(kind={self.kind!r}, support={self.support!r})"

    def __hash__(self) -> int:
        return hash(self[:2])

    def __getnewargs__(self) -> tuple:
        return self[:2]


def fixed_pieces(spec: ActionSpec, g: int, mask: int | None = None) -> list[LocusPiece]:
    """Pieces of the locus fixed by the element ``g``, built sorted and valid.

    The coordinates split into the + sector, then the - sector of ``g``;
    an empty sector is left out.  Affine: the + sector only.  Projective:
    a point or a projective space per sector.  Quadric: an empty piece, a
    point pair or a Fermat quadric per sector, so the pieces partition the
    coordinates as on P^n (``inertia.components`` skips the empty ones).
    ``mask``, if given, is the sign mask of ``g``: bit i set when g negates coordinate i.
    """
    if mask is None:
        mask = sum(dot(chi, g) << i for i, chi in enumerate(spec.characters))
    plus = _set_bits(mask ^ (1 << spec.num_coords) - 1)
    if spec.kind == "affine":
        return [_new(LocusPiece, (AFFINE, plus, len(plus)))]
    pieces = []
    for coords in filter(None, (plus, _set_bits(mask))):
        n = len(coords)
        if spec.kind == "projective":
            kind = POINT if n == 1 else PROJ
        else:
            kind = EMPTY if n == 1 else POINT_PAIR if n == 2 else FERMAT
        pieces.append(_new(LocusPiece, (kind, coords, -1 if kind == EMPTY else n - _CODIM[kind])))
    return pieces
