"""Inertia-stack components of a diagonal quotient and their coarse data.

For an abelian group every inertia component sits over a single group
element g: it is a connected piece of the fixed locus of g together with
the residual action of the whole group.  Each component is one record:
its element, its piece (of the coarse space's dimension), and

* the rank, i.e. the Euler characteristic of the coarse moduli,
* a coarse-moduli kind (affine space / projective space / point) where
  the residual sign action makes the quotient recognizably one of
  those, and an explicit "undetermined" kind otherwise.

``components`` lists them by element, the + sector before the - sector
of one element, and the two halves of a split point pair in order;
``sod.assemble`` relies on that order for its tie-break.

All of it is read off the characters chi_i of the coordinates i in the
piece's support T (t = |T|), without enumerating the group.  The map
h -> (<chi_i, h>)_{i in T} sends G onto the residual sign group R of
the piece; its kernel, the h orthogonal to every chi_i, has dimension
k - rank{chi_i}, so |R| = 2^rank{chi_i}.  Modulo the global sign, the
pattern normalized to a plus sign on the first coordinate t_0 is
(<chi_i + chi_t0, h>)_i, so that order is 2^rank{chi_i + chi_t0}.

* Rank.  By Burnside it is (1/|G|) sum_h chi_c(piece intersect X^h).
  An affine piece meets every X^h in a linear subspace (chi_c = 1), and
  a projective piece or point on t coordinates in sub-projective spaces
  covering all t coordinates (chi_c = t).  A Fermat piece splits into
  the quadrics on the + and - sectors of h, and a Fermat sector on s
  coordinates has chi_c = 2 floor(s/2) (a point pair for s = 2, nothing
  for s = 1).  For odd t that sums to t - 1 for every h; for even t to
  t, or t - 2 when the - sector is odd.  Its parity is
  <XOR of the chi_i, h>, which is odd for none of the h when the XOR is
  0 and for half of them otherwise, so the rank is t when t is even and
  the chi_i XOR to 0, and t - 1 otherwise.  A point pair (merged or
  either half of a split one) has rank 1.
* Pair split.  The pair x_a^2 + x_b^2 = 0 is {x_a = i x_b} and
  {x_a = -i x_b}; h exchanges them iff <chi_a + chi_b, h> = 1, which
  some h does unless chi_a = chi_b.  So the pair splits into two
  inertia components exactly when its two characters are equal.
* Affine reflection test.  A sign group on A^t has an affine-space
  quotient iff it is generated by reflections, here single-coordinate
  flips (Chevalley; Shephard-Todd), i.e. iff R = {+-1}^J for some set J
  of coordinates.  A coordinate with chi_i = 0 is never negated, so J
  must be the set of coordinates with a nonzero character, and
  R = {+-1}^J iff those characters are linearly independent: their rank
  is t minus the number of zero characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

from .groups import ActionSpec, f2_rank
from .loci import AFFINE, EMPTY, FERMAT, POINT, POINT_PAIR, PROJ
from .loci import LocusPiece, fixed_pieces


@dataclass(frozen=True, slots=True)
class InertiaComponent:
    element: int
    piece: LocusPiece  # the coarse space has dimension piece.dim
    split_index: int | None  # 1/2 for the halves of an unswapped point pair
    rank: int
    coarse: str  # "affine" | "projective" | "point" | "undetermined"


def _rank_mod_scalar(spec: ActionSpec, coords: tuple[int, ...]) -> int:
    """log2 of the residual sign-group order modulo the global sign."""
    chi_0 = spec.characters[coords[0]]
    return f2_rank([spec.characters[i] ^ chi_0 for i in coords])


def classify_piece(spec: ActionSpec, piece: LocusPiece) -> str:
    """Coarse-moduli kind of the quotient of a fixed-locus piece.

    Projective sectors: a trivial residual sign group leaves the piece
    untouched, and a full one (order 2^(|T|-1) mod scalars) maps it by
    coordinate squaring onto a projective space; anything in between is
    left undetermined.  Fermat sectors become hyperplane sections of the
    squared projective space when the residual signs are full.
    """
    t = len(piece.support)
    if piece.kind == AFFINE:
        if t == 0:
            return "point"
        chars = [spec.characters[i] for i in piece.support]
        return "affine" if f2_rank(chars) == t - chars.count(0) else "undetermined"
    if piece.kind in (POINT, POINT_PAIR):
        return "point"
    r = _rank_mod_scalar(spec, piece.support)
    full = r == t - 1
    if piece.kind == PROJ:
        return "projective" if r == 0 or full else "undetermined"
    if piece.kind == FERMAT:
        return "projective" if full else "undetermined"
    raise ValueError(f"cannot classify piece of kind {piece.kind!r}")


def twist_step(spec: ActionSpec, coords: tuple[int, ...]) -> int:
    """Degree of the quotient map on a classified projective sector.

    2 when the residual signs are full (the quotient squares each
    coordinate, so pulling back O(1) gives O(2)); 1 when they are
    trivial (the quotient map is the identity).
    """
    r = _rank_mod_scalar(spec, coords)
    if r == 0:
        return 1
    if r == len(coords) - 1:
        return 2
    raise ValueError("quotient map degree is only defined for classified sectors")


def _piece_rank(spec: ActionSpec, piece: LocusPiece) -> int:
    t = len(piece.support)
    if piece.kind in (AFFINE, POINT_PAIR):
        return 1
    if piece.kind == FERMAT:
        parity = reduce(xor, map(spec.characters.__getitem__, piece.support), 0)
        return t if t % 2 == 0 and parity == 0 else t - 1
    return t  # point or projective


def _sector_parts(spec: ActionSpec, g: int, mask: int) -> list[tuple]:
    """(piece, split_index, rank, coarse) of each component over ``g``,
    whose sign mask is ``mask``."""
    chars = spec.characters
    parts = []
    for piece in fixed_pieces(spec, g, mask):
        if piece.kind == EMPTY:
            continue
        pair = piece.kind == POINT_PAIR
        halves = (1, 2) if pair and chars[piece.support[0]] == chars[piece.support[1]] else (None,)
        coarse, rank = classify_piece(spec, piece), _piece_rank(spec, piece)
        if coarse == "projective" and rank != piece.dim + 1:
            raise ArithmeticError(f"rank {rank} disagrees with projective coarse type P{piece.dim}")
        parts += [(piece, half, rank, coarse) for half in halves]
    return parts


def components(spec: ActionSpec) -> list[InertiaComponent]:
    """All inertia components: one per (element, nonempty fixed piece),
    except that a point pair nobody swaps contributes two components.
    Listed by element, + sector first, then by split index.  They depend
    on the element's sign mask alone, and mask(g ^ h) = mask(g) ^ mask(h):
    the masks come from the generators' rows by XOR, each classified once."""
    masks = [0]
    for row in spec.rows:
        generator = sum(b << i for i, b in enumerate(row))
        masks += [m ^ generator for m in masks]
    sectors: dict[int, list[tuple]] = {}
    out = []
    for g, mask in enumerate(masks):
        parts = sectors.get(mask)
        if parts is None:
            parts = sectors[mask] = _sector_parts(spec, g, mask)
        out += [InertiaComponent(g, piece, half, rank, coarse) for piece, half, rank, coarse in parts]
    return out
