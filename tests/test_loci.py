import copy
import pickle
import random

import pytest

from mu2sod.groups import make_spec
from mu2sod.loci import _BYTE_BITS, LocusPiece, _set_bits, fixed_pieces
from mu2sod.presets import etale, p2_example, pn_full, quadric
from test_oracle_sweep import chi_c_total, oracle_chi, oracle_pieces
from test_oracle_sweep import random_spec as random_spec_of_kind


def random_spec(rng):
    kind = rng.choice(["affine", "projective", "fermat_quadric"])
    dim = rng.randint(1, 4)
    k = rng.randint(0, 3)
    c = {"affine": dim, "projective": dim + 1, "fermat_quadric": dim + 2}[kind]
    if kind == "affine":
        k = min(k, c)
    rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)]
    return make_spec(kind, dim, rows)


def inside_each_split(spec, pieces):
    """Whether every piece lies inside one piece of each element's split."""
    return all(
        any(set(p.support) <= set(q.support) for q in fixed_pieces(spec, g))
        for g in spec.group
        for p in pieces
    )


def test_sectors_single_generator():
    # the identity adds a constant 0 bit to every pattern, so the split by
    # (identity, g) is the split by g: + sector first
    spec = p2_example()
    pieces = fixed_pieces(spec, 0b01)
    assert [p.support for p in pieces] == [(1, 2), (0,)]
    assert oracle_pieces(spec.to_dict(), (0b00, 0b01), range(3)) == pieces


def test_sectors_trivial_subgroup():
    spec = p2_example()
    assert [p.support for p in fixed_pieces(spec, 0b00)] == [(0, 1, 2)]
    assert oracle_pieces(spec.to_dict(), (), range(3)) == fixed_pieces(spec, 0b00)


def test_sectors_full_group():
    spec = p2_example()
    pieces = oracle_pieces(spec.to_dict(), tuple(spec.group), range(3))
    # patterns over the whole group are pairwise distinct on p2-example;
    # ascending order: coordinate 2 (all plus), then 0 (bit 1), then 1
    assert [p.support for p in pieces] == [(2,), (0,), (1,)]
    assert oracle_pieces(spec.to_dict(), (0b01, 0b10), range(3)) == pieces
    assert inside_each_split(spec, pieces)


def test_fixed_pieces_p2_single_flip():
    spec = p2_example()
    pieces = fixed_pieces(spec, 0b01)
    assert pieces == [LocusPiece("projective", (1, 2)), LocusPiece("point", (0,))]


def test_fixed_pieces_affine_preset():
    spec = etale(3, 2)
    (piece,) = fixed_pieces(spec, 0b11)
    assert piece == LocusPiece("affine", (2,))
    assert piece.dim == 1


def test_fixed_pieces_quadric_weight_two():
    spec = quadric(2)
    pieces = fixed_pieces(spec, 0b011)
    assert pieces == [
        LocusPiece("point_pair", (2, 3)),
        LocusPiece("point_pair", (0, 1)),
    ]


def test_fixed_pieces_subgroup_trivial():
    assert fixed_pieces(p2_example(), 0) == [LocusPiece("projective", (0, 1, 2))]
    assert fixed_pieces(etale(3, 2), 0) == [LocusPiece("affine", (0, 1, 2))]
    assert fixed_pieces(quadric(2), 0) == [LocusPiece("fermat", (0, 1, 2, 3))]


def test_fixed_pieces_subgroup_full_group_p2():
    spec = p2_example()
    pieces = oracle_pieces(spec.to_dict(), tuple(spec.group), range(3))
    assert sorted(p.support for p in pieces) == [(0,), (1,), (2,)]
    assert all(p.kind == "point" for p in pieces)
    assert inside_each_split(spec, pieces)


def test_fixed_pieces_subgroup_full_group_quadric():
    spec = quadric(2)
    pieces = oracle_pieces(spec.to_dict(), tuple(spec.group), range(4))
    assert len(pieces) == 4
    assert all(p.kind == "empty" and len(p.support) == 1 for p in pieces)
    assert chi_c_total(pieces) == 0


def test_chi_c_table():
    assert oracle_chi(LocusPiece("affine", (0, 1, 2, 3, 4))) == 1
    assert oracle_chi(LocusPiece("projective", (0, 1, 2))) == 3
    assert oracle_chi(LocusPiece("fermat", (0, 1, 2, 3))) == 4  # quadric surface
    assert oracle_chi(LocusPiece("fermat", (0, 1, 2))) == 2  # conic
    assert oracle_chi(LocusPiece("fermat", (0, 1, 2, 3, 4))) == 4  # odd-dim quadric
    assert oracle_chi(LocusPiece("point_pair", (0, 1))) == 2
    assert oracle_chi(LocusPiece("point", (0,))) == 1
    assert oracle_chi(LocusPiece("empty", (0,))) == 0
    assert LocusPiece("empty", ()).dim == -1


def test_piece_dim_and_identity():
    # the dimension by kind; it takes no part in equality, hashing or repr
    dims = {"affine": 3, "projective": 2, "fermat": 1, "point_pair": 0, "empty": -1}
    for kind, dim in dims.items():
        support = {"point_pair": (2, 0), "empty": (1,)}.get(kind, (2, 0, 1))
        piece = LocusPiece(kind, support)
        assert piece.dim == dim
        assert piece == LocusPiece(kind, tuple(sorted(support)))
        assert hash(piece) == hash((kind, tuple(sorted(support))))
        assert repr(piece) == f"LocusPiece(kind={kind!r}, support={tuple(sorted(support))!r})"
    assert LocusPiece("point", (4,)).dim == 0
    # a kind no locus produces still builds, with dim 0, and is refused where it is classified
    assert LocusPiece("other", (0, 1)).dim == 0


def test_piece_validation():
    with pytest.raises(ValueError):
        LocusPiece("projective", (0,))
    with pytest.raises(ValueError):
        LocusPiece("fermat", (0, 1))
    with pytest.raises(ValueError):
        LocusPiece("point_pair", (0, 1, 2))


def test_sector_partition_property():
    rng = random.Random(11)
    for _ in range(60):
        spec = random_spec(rng)
        g = rng.randrange(1 << spec.rank)
        seen = [i for p in fixed_pieces(spec, g) for i in p.support]
        if spec.kind == "affine":
            # only the all-plus sector survives
            assert seen == [
                i for i, chi in enumerate(spec.characters) if (chi & g).bit_count() % 2 == 0
            ]
        else:
            assert sorted(seen) == list(range(spec.num_coords))


def test_projective_completeness():
    rng = random.Random(13)
    for _ in range(60):
        spec = random_spec(rng)
        if spec.kind != "projective":
            continue
        for g in spec.group:
            pieces = fixed_pieces(spec, g)
            assert sum(len(p.support) for p in pieces) == spec.num_coords
            # chi_c additivity: each class contributes its size
            assert chi_c_total(pieces) == spec.num_coords


def test_single_element_matches_span_subgroup():
    # splitting by g and by the whole subgroup {1, g} gives the same pieces
    rng = random.Random(17)
    for _ in range(60):
        spec = random_spec(rng)
        whole = range(spec.num_coords)
        for g in spec.group:
            assert fixed_pieces(spec, g) == oracle_pieces(spec.to_dict(), (0, g), whole)


@pytest.mark.parametrize("n", range(7))
def test_affine_dimension_law(n):
    for k in range(n + 1):
        spec = etale(n, k)
        for g in spec.group:
            (piece,) = fixed_pieces(spec, g)
            assert piece.dim == n - g.bit_count()


def test_refine_piece_is_sector_refinement():
    spec = quadric(2)
    conic = LocusPiece("fermat", (1, 2, 3))  # fixed by g = 0b001
    assert conic in fixed_pieces(spec, 0b001)
    # adding h = 0b010 splits the conic's support into {2,3} and {1}
    split = oracle_pieces(spec.to_dict(), (0b001, 0b010), range(4))
    refined = [p for p in split if set(p.support) <= {1, 2, 3}]
    assert refined == [LocusPiece("point_pair", (2, 3)), LocusPiece("empty", (1,))]
    assert chi_c_total(refined) == 2
    # the identity refines to the piece itself
    assert conic in oracle_pieces(spec.to_dict(), (0b001, 0), range(4))


def test_refine_piece_point_pair():
    spec = quadric(2)
    pair = LocusPiece("point_pair", (0, 1))  # fixed by g = 0b011
    assert pair in fixed_pieces(spec, 0b011)

    def chi_inside_pair(h):
        pieces = oracle_pieces(spec.to_dict(), (0b011, h), range(4))
        return chi_c_total([p for p in pieces if set(p.support) <= {0, 1}])

    # elements acting with equal signs keep both points, others swap them
    assert chi_inside_pair(0b000) == 2
    assert chi_inside_pair(0b011) == 2
    assert chi_inside_pair(0b001) == 0


def ladder_and_seeded_specs():
    """The preset ladder, specs whose sign masks are wider than a byte
    (pn-full n = 8, 9; 16-dimensional spaces of each kind, 18 coordinates
    on the quadric) and 300 seeded specs of all three kinds, up to
    dimension 16."""
    specs = [p2_example(), *map(pn_full, range(1, 10)), *map(quadric, range(1, 6))]
    specs += [etale(n, k) for n in range(1, 6) for k in range(n + 1)]
    rng = random.Random(41)
    for kind, c in (("affine", 16), ("projective", 17), ("fermat_quadric", 18)):
        specs += [make_spec(kind, 16, [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)]) for k in (3, 5)]
    for i in range(300):
        specs.append(random_spec_of_kind(rng, ("affine", "projective", "fermat_quadric")[i % 3], max_dim=16))
    return specs


def test_fixed_pieces_build_what_the_checked_constructor_builds():
    # fixed_pieces builds its pieces without sorting or checking them: each
    # is the piece that LocusPiece(kind, support) builds, field for field
    widths, rng = set(), random.Random(37)
    for spec in ladder_and_seeded_specs():
        widths.add(spec.num_coords)
        masks = [rng.getrandbits(spec.num_coords) for _ in range(8)]  # any sign mask, given
        calls = [(g, None) for g in range(min(1 << spec.rank, 64))] + [(0, mask) for mask in masks]
        for g, mask in calls:
            for piece in fixed_pieces(spec, g, mask):
                checked = LocusPiece(piece.kind, piece.support)
                assert type(piece) is LocusPiece
                assert tuple(piece) == tuple(checked), (spec, g, mask)
                assert hash(piece) == hash(checked)
                assert repr(piece) == repr(checked)
    assert max(widths) == 18 and len(widths) > 10


def test_set_bits_match_a_bit_loop():
    def bit_loop(bits):
        return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)

    assert len(_BYTE_BITS) == 256
    assert all(_BYTE_BITS[byte] == bit_loop(byte) for byte in range(256))
    rng = random.Random(31)
    for bits in [*range(1 << 12), *(rng.getrandbits(rng.randint(9, 40)) for _ in range(2000))]:
        assert _set_bits(bits) == bit_loop(bits), bits


def test_piece_copies_and_pickles():
    spec = make_spec("fermat_quadric", 16, [[1] * 9 + [0] * 9])
    pieces = [*fixed_pieces(spec, 1), *fixed_pieces(pn_full(3), 0b101), LocusPiece("point", (4,))]
    pieces += [LocusPiece("empty", (1,)), LocusPiece("other", (1, 0))]
    for piece in pieces:
        clones = [copy.copy(piece), copy.deepcopy(piece)]
        clones += [pickle.loads(pickle.dumps(piece, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is LocusPiece
            assert tuple(clone) == tuple(piece)
            assert hash(clone) == hash(piece) and repr(clone) == repr(piece)
