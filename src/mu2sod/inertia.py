"""Inertia-stack components of a diagonal quotient and their coarse data.

For an abelian group every inertia component sits over a single group
element g: it is a connected piece of the fixed locus of g together with
the residual action of the whole group.  Each component is one record,
a tuple: its element, its piece (of the coarse space's dimension), and

* the rank, i.e. the Euler characteristic of the coarse moduli,
* a coarse-moduli kind (affine space / projective space / point) where
  the residual sign action makes the quotient recognizably one of
  those, and an explicit "undetermined" kind otherwise,
* the degree of its quotient map, where ``classify_piece`` knows it.

``components`` lists them by element, the + sector before the - sector
of one element, and the two halves of a split point pair in order;
``sod.assemble`` relies on that order for its tie-break.  Records and
their pieces are built straight from their fields, with no check.

All of it is read off the characters chi_i of the coordinates i in the
piece's support T (t = |T|), without enumerating the group.  The map
h -> (<chi_i, h>)_{i in T} sends G onto the residual sign group R of
the piece; its kernel, the h orthogonal to every chi_i, has dimension
k - rank{chi_i}, so |R| = 2^rank{chi_i}.  Modulo the global sign, the
pattern normalized to a plus sign on the first coordinate t_0 is
(<chi_i + chi_t0, h>)_i, so that order is 2^r, r = rank{chi_i + chi_t0}.

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

from collections import namedtuple
from functools import reduce
from operator import xor

from .groups import ActionSpec, f2_rank
from .loci import AFFINE, EMPTY, FERMAT, POINT, POINT_PAIR, PROJ
from .loci import LocusPiece, fixed_pieces


# as above; split_index is 1 or 2 for the halves of an unswapped point pair, else None
InertiaComponent = namedtuple("InertiaComponent", "element piece split_index rank coarse degree")
_new = tuple.__new__


def classify_piece(spec: ActionSpec, piece: LocusPiece) -> tuple[str, int, int | None]:
    """(coarse kind, rank, quotient-map degree) of a fixed-locus piece.

    A projective or Fermat piece is classified by r, the log2 of its
    residual sign-group order modulo the global sign.  r = 0 leaves the
    piece untouched: degree 1.  r = t - 1 maps it by coordinate squaring
    onto a projective space, pulling O(1) back to O(2): degree 2.  In
    between there is no degree, and the kind is undetermined.  A Fermat
    piece, a hyperplane section of the squared space, needs r = t - 1.
    """
    chars = [spec.characters[i] for i in piece.support]
    t = len(chars)
    if piece.kind == AFFINE:
        affine = f2_rank(chars) == t - chars.count(0)
        return "point" if t == 0 else "affine" if affine else "undetermined", 1, None
    if piece.kind in (POINT, POINT_PAIR):
        return "point", 1, None
    if piece.kind not in (PROJ, FERMAT):
        raise ValueError(f"cannot classify piece of kind {piece.kind!r}")
    r = f2_rank([chi ^ chars[0] for chi in chars])
    degree = 1 if r == 0 else 2 if r == t - 1 else None
    if piece.kind == PROJ:
        return "undetermined" if degree is None else "projective", t, degree
    rank = t if t % 2 == 0 and reduce(xor, chars) == 0 else t - 1
    return "projective" if degree == 2 else "undetermined", rank, degree


def _sector_parts(spec: ActionSpec, g: int, mask: int) -> list[tuple]:
    """(piece, split_index, rank, coarse, degree) of each component over
    ``g``, whose sign mask is ``mask``: the fields after the element."""
    chars = spec.characters
    parts = []
    for piece in fixed_pieces(spec, g, mask):
        if piece.kind == EMPTY:
            continue
        pair = piece.kind == POINT_PAIR
        halves = (1, 2) if pair and chars[piece.support[0]] == chars[piece.support[1]] else (None,)
        coarse, rank, degree = classify_piece(spec, piece)
        if coarse == "projective" and rank != piece.dim + 1:
            raise ArithmeticError(f"rank {rank} disagrees with projective coarse type P{piece.dim}")
        parts += [(piece, half, rank, coarse, degree) for half in halves]
    return parts


def components(spec: ActionSpec) -> list[InertiaComponent]:
    """All inertia components: one per (element, nonempty fixed piece),
    except that a point pair nobody swaps contributes two components.
    Listed by element, + sector first, then by split index.  They depend
    on the element's sign mask alone, and mask(g ^ h) = mask(g) ^ mask(h):
    the masks come from the generators' rows by XOR, each classified once.
    On P^n and a quadric, complementary masks give the same pieces with
    the two sectors swapped: each pair is classified once."""
    masks = [0]
    for row in spec.rows:
        generator = sum(b << i for i, b in enumerate(row))
        masks += [m ^ generator for m in masks]
    full = 0 if spec.kind == "affine" else (1 << spec.num_coords) - 1
    sectors: dict[int, list[tuple]] = {}
    out = []
    for g, mask in enumerate(masks):
        if mask not in sectors:
            if full and (mask ^ full) in sectors:  # the twin's parts, its + sector's moved last
                parts = sectors[mask ^ full]
                plus = 2 if parts and parts[0][1] == 1 else 1  # a split pair's halves stay in order
                sectors[mask] = parts[plus:] + parts[:plus]
            else:
                sectors[mask] = _sector_parts(spec, g, mask)
        out += [_new(InertiaComponent, (g, *part)) for part in sectors[mask]]
    return out
