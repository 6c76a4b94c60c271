"""Seeded sweeps over random affine, projective and Fermat-quadric specs,
non-effective ones included, and over the pn-full and quadric presets.

``loci.fixed_pieces`` (the sectors behind every component) and
``verify.burnside_double_sum`` (which counts sign masks and builds no
pieces) are checked here against a from-definition oracle that reads the
signs straight from the spec document's action matrix and sums chi_c
piece by piece.  The closed forms of ``inertia`` (ranks, pair splits,
coarse types, twist steps) are checked against the same oracle: a
per-component Burnside average and enumerations of the residual sign
patterns over the whole group.
"""

import random

import pytest

from mu2sod.groups import is_effective, make_spec
from mu2sod.inertia import classify_piece, components, twist_step
from mu2sod.loci import LocusPiece, fixed_pieces
from mu2sod.presets import pn_full, quadric
from mu2sod.sod import assemble
from mu2sod.verify import burnside_double_sum

NUM_COORDS = {"affine": 0, "projective": 1, "fermat_quadric": 2}


def random_spec(rng, kind, k=None, max_dim=4):
    """Random spec of the given kind, of random rank k <= 4 unless given."""
    dim = rng.randint(max(1, k or 0) if kind == "affine" else 1, max_dim)
    c = dim + NUM_COORDS[kind]
    if k is None:
        k = rng.randint(0, min(4, c) if kind == "affine" else 4)
    return make_spec(kind, dim, [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)])


def negates(action, g, j):
    """Element g negates coordinate j iff an odd number of the generators
    in g (bit i of g is generator i) have a 1 in column j of their row."""
    return sum(row[j] for i, row in enumerate(action) if g >> i & 1) % 2 == 1


def oracle_pieces(doc, elements, support):
    """Pieces fixed by ``elements`` inside the coordinates ``support``.

    Coordinates with the same signs form one sector; sectors are ordered
    by the number whose bit e is set when elements[e] negates them.
    """
    action = doc["action"]
    kind = doc["space"]["kind"]
    sectors = {}
    for j in support:
        key = sum(1 << e for e, g in enumerate(elements) if negates(action, g, j))
        sectors.setdefault(key, []).append(j)
    if kind == "affine":
        return [LocusPiece("affine", tuple(sectors.get(0, [])))]
    pieces = []
    for key in sorted(sectors):
        coords = tuple(sectors[key])
        if kind == "projective":
            pieces.append(LocusPiece("point" if len(coords) == 1 else "projective", coords))
        else:
            geometry = {1: "empty", 2: "point_pair"}.get(len(coords), "fermat")
            pieces.append(LocusPiece(geometry, coords))
    return pieces


def oracle_chi(piece):
    """chi_c by geometry: A^m and a point 1, P^m m+1, two points 2, nothing
    0, and the smooth quadric of dimension d d+2 for even d, d+1 for odd d."""
    n = len(piece.support)
    if piece.kind == "fermat":
        d = n - 2
        return d + 2 if d % 2 == 0 else d + 1
    return {"affine": 1, "point": 1, "projective": n, "point_pair": 2, "empty": 0}[piece.kind]


def chi_c_total(pieces):
    """chi_c of a disjoint union of pieces."""
    return sum(oracle_chi(p) for p in pieces)


def oracle_double_sum(spec):
    """sum over ordered pairs (g, h) of chi_c(X^<g,h>), piece by piece."""
    doc = spec.to_dict()
    whole = range(spec.num_coords)
    return sum(
        chi_c_total(oracle_pieces(doc, (g, h), whole)) for g in spec.group for h in spec.group
    )


def burnside_average(doc, piece):
    """(1/|G|) sum_h chi_c(piece intersect X^h), checked to be integral."""
    order = 1 << doc["group_rank"]
    total = sum(
        oracle_chi(p) for h in range(order) for p in oracle_pieces(doc, (h,), piece.support)
    )
    assert total % order == 0, f"non-integral Burnside average {total}/{order} for {piece}"
    return total // order


def sign_patterns(doc, coords):
    """Residual sign patterns on ``coords`` over the whole group, bit j of
    a pattern being set when the element negates coords[j]."""
    action = doc["action"]
    return {
        sum(negates(action, h, i) << j for j, i in enumerate(coords))
        for h in range(1 << doc["group_rank"])
    }


def pattern_classes_mod_scalar(doc, coords):
    full = (1 << len(coords)) - 1
    return {p ^ full if p & 1 else p for p in sign_patterns(doc, coords)}


def oracle_classify(doc, piece):
    """Coarse type from the sign patterns: an affine quotient when the
    residual group is generated by single-coordinate flips; a projective
    one when the patterns mod the global sign are trivial or full."""
    t = len(piece.support)
    if piece.kind == "affine":
        if t == 0:
            return ("point", 0), "smooth"
        patterns = sign_patterns(doc, piece.support)
        flipped = 0
        for p in patterns:
            if p.bit_count() == 1:
                flipped |= p
        if all(p & ~flipped == 0 for p in patterns):
            return ("affine", t), "smooth"
        return ("undetermined", t), "unknown"
    if piece.kind in ("point", "point_pair"):
        return ("point", 0), "smooth"
    classes = len(pattern_classes_mod_scalar(doc, piece.support))
    full = classes == 1 << (t - 1)
    if piece.kind == "projective" and (classes == 1 or full):
        return ("projective", t - 1), "smooth"
    if piece.kind == "fermat" and full:
        return ("projective", t - 2), "smooth"
    return ("undetermined", t - 1 if piece.kind == "projective" else t - 2), "unknown"


def oracle_twist_step(doc, coords):
    classes = len(pattern_classes_mod_scalar(doc, coords))
    return {1: 1, 1 << (len(coords) - 1): 2}.get(classes)


def pair_is_swapped(doc, piece):
    a, b = piece.support
    return any(
        negates(doc["action"], h, a) != negates(doc["action"], h, b)
        for h in range(1 << doc["group_rank"])
    )


def check_components(spec):
    doc = spec.to_dict()
    for comp in components(spec):
        piece = comp.piece
        if piece.kind == "point_pair":
            assert (comp.split_index is None) == pair_is_swapped(doc, piece), (doc, comp)
        # each half of a split pair carries half of the pair's average
        halves = 2 if comp.split_index else 1
        assert comp.rank * halves == burnside_average(doc, piece), (doc, comp)
        (kind, dim), smooth = oracle_classify(doc, piece)
        ctype, csmooth = classify_piece(spec, piece)
        assert (ctype.kind, ctype.dim, csmooth) == (kind, dim, smooth), (doc, comp)
        assert (comp.coarse_type, comp.smooth) == (ctype, csmooth)
        if piece.kind in ("projective", "fermat"):
            expected = oracle_twist_step(doc, piece.support)
            if expected is None:
                with pytest.raises(ValueError):
                    twist_step(spec, piece.support)
            else:
                assert twist_step(spec, piece.support) == expected, (doc, comp)


def test_fixed_pieces_match_definition():
    rng = random.Random(20261018)
    for kind in NUM_COORDS:
        for _ in range(60):
            spec = random_spec(rng, kind)
            doc = spec.to_dict()
            whole = range(spec.num_coords)
            for _ in range(8):
                elements = tuple(rng.randrange(1 << spec.rank) for _ in range(rng.randint(0, 3)))
                assert fixed_pieces(spec, elements) == oracle_pieces(doc, elements, whole), (
                    doc,
                    elements,
                )
            for g in spec.group:
                assert fixed_pieces(spec, (g,)) == oracle_pieces(doc, (g,), whole)


def test_total_rank_matches_burnside_double_sum():
    rng = random.Random(20261019)
    ineffective = 0
    for kind in NUM_COORDS:
        for _ in range(40):
            spec = random_spec(rng, kind)
            report = assemble(spec)
            assert report.total_rank * len(spec.group) == burnside_double_sum(spec), spec.to_dict()
            ineffective += kind == "projective" and not report.effective
    assert ineffective  # the sweep reaches non-effective projective actions


def test_burnside_double_sum_matches_definition_random():
    rng = random.Random(20261021)
    ineffective = 0
    for kind in NUM_COORDS:
        for k in range(6):
            for _ in range(6):
                spec = random_spec(rng, kind, k, max_dim=5)
                assert burnside_double_sum(spec) == oracle_double_sum(spec), spec.to_dict()
                ineffective += not is_effective(spec)
    assert ineffective  # the sweep reaches non-effective actions


@pytest.mark.parametrize("size", range(1, 7))
def test_burnside_double_sum_matches_definition_presets(size):
    for spec in (pn_full(size), quadric(size)):
        assert burnside_double_sum(spec) == oracle_double_sum(spec), spec.to_dict()


@pytest.mark.parametrize("spec", [pn_full(8), quadric(7)], ids=["pn-full-8", "quadric-7"])
def test_burnside_double_sum_large_presets(spec):
    assert burnside_double_sum(spec) == len(spec.group) * assemble(spec).total_rank


def test_closed_forms_match_oracles_random():
    rng = random.Random(20261020)
    ineffective = 0
    for kind in NUM_COORDS:
        for k in range(6):
            for _ in range(10):
                spec = random_spec(rng, kind, k, max_dim=5)
                check_components(spec)
                ineffective += not assemble(spec).effective
    assert ineffective  # the sweep reaches non-effective actions


@pytest.mark.parametrize("size", range(1, 7))
def test_closed_forms_match_oracles_presets(size):
    check_components(pn_full(size))
    check_components(quadric(size))
