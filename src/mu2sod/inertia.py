"""Inertia-stack components of a diagonal quotient and their coarse data.

For an abelian group every inertia component sits over a single group
element g: it is a connected piece of the fixed locus of g together with
the residual action of the whole group.  Per component we compute

* the coarse dimension (= dimension of the piece),
* the rank, i.e. the Euler characteristic of the coarse moduli, by
  Burnside averaging chi_c over the group,
* a coarse-moduli classification (affine space / projective space /
  point) where the residual sign action makes the quotient recognizably
  one of those, and an explicit "undetermined" tag otherwise.

A point pair x^2 + y^2 = 0 splits into two inertia components exactly
when no group element swaps the two points, i.e. when the two
supporting coordinates carry identical characters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import ActionSpec, dot
from .loci import AFFINE, EMPTY, FERMAT, POINT, POINT_PAIR, PROJ
from .loci import LocusPiece, chi_c_total, fixed_pieces

SMOOTH = "smooth"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class CoarseType:
    kind: str  # "affine" | "projective" | "point" | "undetermined"
    dim: int

    def label(self) -> str:
        if self.kind == "projective":
            return f"P{self.dim}"
        if self.kind == "affine":
            return f"A{self.dim}"
        if self.kind == "point":
            return "pt"
        return f"undetermined({self.dim})"


@dataclass(frozen=True)
class InertiaComponent:
    element: int
    piece: LocusPiece
    split_index: int | None  # 1/2 for the halves of an unswapped point pair
    coarse_dim: int
    rank: int
    coarse_type: CoarseType
    smooth: str


def residual_signs(spec: ActionSpec, coords: tuple[int, ...]) -> set[int]:
    """Sign patterns through which the group acts on the given coordinates,
    bit j of a pattern being the sign on ``coords[j]``."""
    chars = [spec.characters[i] for i in coords]
    return {
        sum(dot(chi, g) << j for j, chi in enumerate(chars)) for g in spec.group
    }


def residual_signs_mod_scalar(spec: ActionSpec, coords: tuple[int, ...]) -> set[int]:
    """Residual sign patterns modulo the global sign (trivial in PGL),
    normalized to a plus sign on ``coords[0]``."""
    full = (1 << len(coords)) - 1
    return {p ^ full if p & 1 else p for p in residual_signs(spec, coords)}


def pair_is_swapped(spec: ActionSpec, piece: LocusPiece) -> bool:
    """Whether some group element exchanges the two points of a pair.

    The pair is {x_a = i x_b} and {x_a = -i x_b}; an element swaps them
    iff it rescales x_a and x_b by opposite signs.
    """
    a, b = piece.support
    chi_a, chi_b = spec.characters[a], spec.characters[b]
    return any(dot(chi_a, h) != dot(chi_b, h) for h in spec.group)


def burnside_average(spec: ActionSpec, piece: LocusPiece) -> int:
    """(1/|G|) sum_h chi_c(piece intersect X^h), checked to be integral."""
    order = len(spec.group)
    total = sum(
        chi_c_total(fixed_pieces(spec, (h,), piece.support)) for h in spec.group
    )
    if total % order:
        raise ArithmeticError(
            f"non-integral Burnside average {total}/{order} for {piece}; "
            "this indicates a component-splitting bug"
        )
    return total // order


def _is_reflection_generated(patterns: set[int]) -> bool:
    """Whether a sign subgroup is generated by single-coordinate flips.

    Quotients of affine space by diagonal signs are smooth (and again
    affine space) exactly in this case.
    """
    flipped = 0
    for p in patterns:
        if p.bit_count() == 1:
            flipped |= p
    return all(p & ~flipped == 0 for p in patterns)


def classify_piece(spec: ActionSpec, piece: LocusPiece) -> tuple[CoarseType, str]:
    """Coarse-moduli type of the quotient of a fixed-locus piece.

    Projective sectors: a trivial residual sign group leaves the piece
    untouched, and a full one (order 2^(|T|-1) mod scalars) maps it by
    coordinate squaring onto a projective space; anything in between is
    left undetermined.  Fermat sectors become hyperplane sections of the
    squared projective space when the residual signs are full.
    """
    t = len(piece.support)
    if piece.kind == AFFINE:
        if t == 0:
            return CoarseType("point", 0), SMOOTH
        if _is_reflection_generated(residual_signs(spec, piece.support)):
            return CoarseType("affine", t), SMOOTH
        return CoarseType("undetermined", t), UNKNOWN
    if piece.kind in (POINT, POINT_PAIR):
        return CoarseType("point", 0), SMOOTH
    residual = residual_signs_mod_scalar(spec, piece.support)
    full = len(residual) == 1 << (t - 1)
    if piece.kind == PROJ:
        if len(residual) == 1 or full:
            return CoarseType("projective", t - 1), SMOOTH
        return CoarseType("undetermined", t - 1), UNKNOWN
    if piece.kind == FERMAT:
        if full:
            return CoarseType("projective", t - 2), SMOOTH
        return CoarseType("undetermined", t - 2), UNKNOWN
    raise ValueError(f"cannot classify piece of kind {piece.kind!r}")


def twist_step(spec: ActionSpec, coords: tuple[int, ...]) -> int:
    """Degree of the quotient map on a classified projective sector.

    2 when the residual signs are full (the quotient squares each
    coordinate, so pulling back O(1) gives O(2)); 1 when they are
    trivial (the quotient map is the identity).
    """
    residual = residual_signs_mod_scalar(spec, coords)
    if len(residual) == 1:
        return 1
    if len(residual) == 1 << (len(coords) - 1):
        return 2
    raise ValueError("quotient map degree is only defined for classified sectors")


def _make_component(
    spec: ActionSpec, g: int, piece: LocusPiece, split_index: int | None
) -> InertiaComponent:
    ctype, smooth = classify_piece(spec, piece)
    if split_index is not None or piece.kind == POINT_PAIR:
        rank = 1
    else:
        rank = burnside_average(spec, piece)
    if ctype.kind == "projective" and rank != ctype.dim + 1:
        raise ArithmeticError(
            f"rank {rank} disagrees with projective coarse type P{ctype.dim}"
        )
    return InertiaComponent(
        element=g,
        piece=piece,
        split_index=split_index,
        coarse_dim=piece.dim,
        rank=rank,
        coarse_type=ctype,
        smooth=smooth,
    )


def components(spec: ActionSpec) -> list[InertiaComponent]:
    """All inertia components: one per (element, nonempty fixed piece),
    except that a point pair nobody swaps contributes two components."""
    out = []
    for g in spec.group:
        for piece in fixed_pieces(spec, (g,)):
            if piece.kind == EMPTY:
                continue
            if piece.kind == POINT_PAIR and not pair_is_swapped(spec, piece):
                out.append(_make_component(spec, g, piece, 1))
                out.append(_make_component(spec, g, piece, 2))
            else:
                out.append(_make_component(spec, g, piece, None))
    return out
