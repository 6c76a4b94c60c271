"""Seeded sweep over random affine, projective (non-effective included)
and Fermat-quadric specs with k <= 4.

``loci.fixed_pieces`` computes the sectors on both the production path
(components, Burnside ranks) and the oracle path (the Burnside double
sum), so it is checked here against a from-definition oracle that reads
the signs straight from the spec document's action matrix.
"""

import random

from mu2sod.groups import make_spec
from mu2sod.loci import LocusPiece, fixed_pieces
from mu2sod.sod import assemble
from mu2sod.verify import burnside_double_sum

NUM_COORDS = {"affine": 0, "projective": 1, "fermat_quadric": 2}


def random_spec(rng, kind):
    dim = rng.randint(1, 4)
    c = dim + NUM_COORDS[kind]
    k = rng.randint(0, min(4, c) if kind == "affine" else 4)
    return make_spec(kind, dim, [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)])


def oracle_pieces(doc, elements, support):
    """Pieces fixed by ``elements`` inside the coordinates ``support``.

    Element g negates coordinate j iff an odd number of the generators
    in g (bit i of g is generator i) negate j, i.e. have a 1 in column
    j of their action row.  Coordinates with the same signs form one
    sector; sectors are ordered by the number whose bit e is set when
    elements[e] negates them.
    """
    action = doc["action"]
    kind = doc["space"]["kind"]

    def negates(g, j):
        return sum(row[j] for i, row in enumerate(action) if g >> i & 1) % 2 == 1

    sectors = {}
    for j in support:
        key = sum(1 << e for e, g in enumerate(elements) if negates(g, j))
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


def test_fixed_pieces_match_definition():
    rng = random.Random(20261018)
    for kind in NUM_COORDS:
        for _ in range(60):
            spec = random_spec(rng, kind)
            doc = spec.to_dict()
            for _ in range(8):
                elements = tuple(rng.randrange(1 << spec.rank) for _ in range(rng.randint(0, 3)))
                support = rng.sample(range(spec.num_coords), rng.randint(0, spec.num_coords))
                assert fixed_pieces(spec, elements, support) == oracle_pieces(
                    doc, elements, support
                ), (doc, elements, support)
            whole = range(spec.num_coords)
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
