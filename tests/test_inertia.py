import copy
import itertools
import pickle
import random
from collections import Counter

import pytest

from mu2sod.groups import dot, f2_rank, is_effective, make_spec
from mu2sod.inertia import InertiaComponent, classify_piece, components
from mu2sod.sod import _smoothness
from mu2sod.loci import AFFINE, PROJ, LocusPiece, fixed_pieces
from mu2sod.presets import etale, p2_example, pn_full, quadric
from test_oracle_sweep import chi_c_total, oracle_pieces, random_spec


def burnside_by_pairs(spec, comp):
    """(1/|G|) sum_h chi_c(piece intersect X^h), read off the split of the
    whole space by (g, h): the pieces inside the component's support."""
    doc, inside = spec.to_dict(), set(comp.piece.support)
    whole = range(spec.num_coords)
    total = sum(
        chi_c_total([p for p in oracle_pieces(doc, (comp.element, h), whole) if inside >= set(p.support)])
        for h in spec.group
    )
    assert total % len(spec.group) == 0
    return total // len(spec.group)


def test_p2_example_components():
    comps = components(p2_example())
    assert len(comps) == 7
    by_dim = Counter(c.piece.dim for c in comps)
    assert by_dim == {2: 1, 1: 3, 0: 3}
    assert [c.rank for c in comps if c.piece.dim == 2] == [3]
    assert all(c.rank == 2 for c in comps if c.piece.dim == 1)
    assert all(c.rank == 1 for c in comps if c.piece.dim == 0)
    # the point and the line of one nontrivial element pair up as in the
    # fixed-locus list {p} u V(x)
    for g in [0b01, 0b10, 0b11]:
        supports = sorted(len(c.piece.support) for c in comps if c.element == g)
        assert supports == [1, 2]


@pytest.mark.parametrize("n", range(7))
def test_etale_component_count_and_dims(n):
    for k in range(n + 1):
        comps = components(etale(n, k))
        assert len(comps) == 1 << k
        dims = Counter(c.piece.dim for c in comps)
        expected = Counter(n - g.bit_count() for g in range(1 << k))
        assert dims == expected
        assert all(c.rank == 1 for c in comps)


def test_quadric_merged_pairs():
    spec = quadric(2)
    comps = [c for c in components(spec) if c.element == 0b011]
    assert len(comps) == 2
    assert all(c.piece.kind == "point_pair" for c in comps)
    assert all(c.split_index is None for c in comps)  # merged, not split
    assert all(c.rank == 1 and c.piece.dim == 0 for c in comps)


def test_split_pair_on_duplicate_characters():
    # both supporting coordinates transform identically, so nothing swaps
    # the two points of x0^2 + x1^2 = 0 and they split into two components
    spec = make_spec("fermat_quadric", 1, [[1, 1, 0]])
    pair = LocusPiece("point_pair", (0, 1))
    assert spec.characters[0] == spec.characters[1]
    comps = components(spec)
    split = [c for c in comps if c.split_index is not None]
    assert [c.split_index for c in split] == [1, 2]
    assert split[0].piece == split[1].piece == pair
    assert split[0].element == split[1].element
    assert all(c.rank == 1 for c in split)
    # conic + two split points
    assert len(comps) == 3
    assert sum(c.rank for c in comps) == 4


def test_swap_criterion():
    # distinct characters: some element negates exactly one of the two
    # coordinates, so it swaps the points and the pair stays one component
    spec = quadric(2)
    pairs = [c for c in components(spec) if c.piece.kind == "point_pair"]
    supports = {c.piece.support for c in pairs}
    assert {(0, 1), (2, 3)} <= supports
    assert all(c.split_index is None for c in pairs)
    for a, b in supports:
        assert any(dot(spec.characters[a], h) != dot(spec.characters[b], h) for h in spec.group)


def test_coarse_chi_p2_by_hand():
    spec = p2_example()
    comps = components(spec)
    plane = next(c for c in comps if c.piece.dim == 2)
    # oracle: Burnside sum written out directly over the group
    total = 0
    for h in spec.group:
        sizes = Counter(dot(spec.characters[i], h) for i in plane.piece.support)
        total += sizes[0] + sizes[1]
    assert total == 12
    assert burnside_by_pairs(spec, plane) == plane.rank == total // 4 == 3
    line = next(c for c in comps if c.piece.dim == 1)
    assert burnside_by_pairs(spec, line) == line.rank == 2


def test_coarse_chi_quadric_conic():
    spec = quadric(2)
    conic = next(
        c for c in components(spec) if c.element == 0b001 and c.piece.kind == "fermat"
    )
    # oracle: chi of the + and - sectors of every h on the conic's
    # support, x^2 = 0 giving nothing and x^2 + y^2 = 0 two points
    total = 0
    for h in spec.group:
        sizes = Counter(dot(spec.characters[i], h) for i in conic.piece.support)
        total += sum({0: 0, 1: 0, 2: 2, 3: 2}[n] for n in (sizes[0], sizes[1]))
    assert total == 16
    assert burnside_by_pairs(spec, conic) == conic.rank == 2


def test_burnside_integrality_random():
    rng = random.Random(23)
    for _ in range(60):
        kind = rng.choice(["affine", "projective", "fermat_quadric"])
        n = rng.randint(1, 4)
        c = {"affine": n, "projective": n + 1, "fermat_quadric": n + 2}[kind]
        k = rng.randint(0, min(3, c))
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)]
        spec = make_spec(kind, n, rows)
        for comp in components(spec):
            average = burnside_by_pairs(spec, comp)  # asserts integrality
            if comp.split_index is None:
                assert average == comp.rank


def test_coarse_types_p2():
    spec = p2_example()
    comps = components(spec)
    plane = next(c for c in comps if c.piece.dim == 2)
    assert (plane.coarse, plane.piece.dim) == ("projective", 2)
    assert _smoothness(plane) == "smooth"
    assert classify_piece(spec, plane.piece)[0] == plane.coarse


def test_coarse_type_quadric_untwisted():
    spec = quadric(2)
    untwisted = next(c for c in components(spec) if c.element == 0)
    assert untwisted.coarse == "projective"
    assert untwisted.piece.dim == 2
    assert untwisted.rank == 3


def test_coarse_type_undetermined_projective():
    # one flipped coordinate on P^2: the identity component's quotient is
    # P(2,1,1), which the classification rule correctly refuses to call smooth
    spec = make_spec("projective", 2, [[1, 0, 0]])
    untwisted = next(c for c in components(spec) if c.element == 0)
    assert untwisted.coarse == "undetermined"
    assert untwisted.piece.dim == 2
    assert _smoothness(untwisted) == "unknown"
    assert untwisted.rank == 3  # rank needs no classification


def test_coarse_type_trivial_residual_is_projective():
    # trivial group: the single component is the space itself
    spec = make_spec("projective", 2, [])
    (comp,) = components(spec)
    assert comp.coarse == "projective"
    assert _smoothness(comp) == "smooth"
    assert comp.rank == 3


def test_affine_coarse_types():
    comps = components(etale(3, 2))
    assert all(
        c.coarse in ("affine", "point") and _smoothness(c) == "smooth"
        for c in comps
    )
    # non-reflection sign action: A^2 / (x,y) -> (-x,-y) has a singular quotient
    spec = make_spec("affine", 2, [[1, 1]])
    untwisted = next(c for c in components(spec) if c.element == 0)
    assert untwisted.coarse == "undetermined"
    assert _smoothness(untwisted) == "unknown"
    assert untwisted.rank == 1
    origin = next(c for c in components(spec) if c.element == 1)
    assert origin.coarse == "point"


def drop_one_flips(chars):
    """Reference for the affine reflection test: the F_2 rank, and the
    number of coordinates whose removal lowers it."""
    r = f2_rank(chars)
    return r, sum(f2_rank(chars[:j] + chars[j + 1 :]) < r for j in range(len(chars)))


def rank_and_flips(chars: list[int]) -> tuple[int, int]:
    """F_2 rank of ``chars`` and the number of its flips, in one XOR-basis
    pass that tracks which coordinates each reduction combined: a
    coordinate whose character reduces to 0 closes a linear relation,
    and a coordinate is a flip iff it occurs in none of them."""
    basis: list[tuple[int, int]] = []  # (vector, the coordinates it sums)
    related = 0
    for j, v in enumerate(chars):
        combined = 1 << j
        for b, summed in basis:
            if v ^ b < v:  # clears b's leading bit, which no later b sets
                v ^= b
                combined ^= summed
        if v:
            basis.append((v, combined))
        else:
            related |= combined
    return len(basis), len(chars) - related.bit_count()


def test_rank_and_flips_match_drop_one_rule():
    rng = random.Random(71)
    cases = [[], [0], [0, 0], [1, 1], [1, 2, 3], [1, 2, 4, 7]]
    for _ in range(4000):
        k = rng.randint(0, 8)
        cases.append([rng.randrange(1 << k) for _ in range(rng.randint(1, 10))])
    outcomes = Counter()
    for chars in cases:
        expected = drop_one_flips(chars)
        assert rank_and_flips(chars) == expected, chars
        outcomes[0 < expected[1] < len(chars), expected[0] == expected[1]] += 1
    # some flips next to relations, and both verdicts of the test
    assert outcomes[True, True] and outcomes[True, False] and outcomes[False, False]


def test_affine_pieces_classified_by_drop_one_rule():
    specs = [etale(n, k) for n in range(1, 7) for k in range(n + 1)]
    rng = random.Random(73)
    specs += [random_spec(rng, "affine", rng.randint(0, 6), max_dim=7) for _ in range(300)]
    verdicts = Counter()
    for spec in specs:
        for comp in components(spec):
            if comp.piece.kind != AFFINE or not comp.piece.support:
                continue
            r, flips = drop_one_flips([spec.characters[i] for i in comp.piece.support])
            expected = "affine" if flips == r else "undetermined"
            assert classify_piece(spec, comp.piece)[0] == comp.coarse == expected, spec.to_dict()
            verdicts[expected] += 1
    assert verdicts["affine"] and verdicts["undetermined"]


def affine_piece_spec(chars: list[int], k: int):
    """An affine spec of rank k whose first len(chars) coordinates carry
    ``chars``, padded with trivial coordinates up to k."""
    c = max(len(chars), k)
    padded = chars + [0] * (c - len(chars))
    return make_spec("affine", c, [[chi >> i & 1 for chi in padded] for i in range(k)])


def test_affine_closed_form_matches_rank_and_flips():
    # the reflection test (flips == rank) against its closed form (the
    # nonzero characters are independent): exhaustively for k <= 3 and
    # t <= 5, then through classify_piece on a seeded sample up to k = 6
    verdicts = Counter()
    for t in range(6):
        for chars in map(list, itertools.product(range(8), repeat=t)):
            r, flips = rank_and_flips(chars)
            closed_form = r == t - chars.count(0)
            assert closed_form == (flips == r), chars
            verdicts[closed_form] += 1
    assert verdicts[True] and verdicts[False]
    rng = random.Random(79)
    classified = Counter()
    for _ in range(2000):
        k = rng.randint(0, 6)
        chars = [rng.randrange(1 << k) for _ in range(rng.randint(1, 8))]
        r, flips = rank_and_flips(chars)
        piece = LocusPiece(AFFINE, tuple(range(len(chars))))
        expected = "affine" if flips == r else "undetermined"
        assert classify_piece(affine_piece_spec(chars, k), piece)[0] == expected, (k, chars)
        classified[expected] += 1
    assert classified["affine"] and classified["undetermined"]


def degree(spec, coords):
    """The quotient-map degree of the projective piece on ``coords``."""
    return classify_piece(spec, LocusPiece(PROJ, coords))[2]


def test_residual_signs_mod_scalar():
    spec = p2_example()

    def classes(coords):
        # sign patterns over the group modulo the global sign
        full = (1 << len(coords)) - 1
        patterns = {
            sum(dot(spec.characters[i], h) << j for j, i in enumerate(coords))
            for h in spec.group
        }
        return {p ^ full if p & 1 else p for p in patterns}

    assert len(classes((0, 1, 2))) == 4  # full sign group of 3 coordinates mod scalars
    assert len(classes((1, 2))) == 2
    for coords in [(0, 1, 2), (1, 2)]:
        chi_0 = spec.characters[coords[0]]
        assert len(classes(coords)) == 1 << f2_rank(spec.characters[i] ^ chi_0 for i in coords)
        assert degree(spec, coords) == 2
    assert degree(make_spec("projective", 2, []), (0, 1, 2)) == 1
    assert degree(make_spec("projective", 2, [[1, 0, 0]]), (0, 1, 2)) is None


def test_projective_rank_cross_check():
    # two independent paths: Burnside average vs projective coarse dim + 1
    for spec in [p2_example(), pn_full(3), quadric(2)]:
        for comp in components(spec):
            if comp.coarse == "projective":
                assert comp.rank == comp.piece.dim + 1
                assert burnside_by_pairs(spec, comp) == comp.rank


def test_component_invariants_random():
    rng = random.Random(29)
    for _ in range(40):
        kind = rng.choice(["affine", "projective", "fermat_quadric"])
        dim = rng.randint(1, 4)
        c = {"affine": dim, "projective": dim + 1, "fermat_quadric": dim + 2}[kind]
        k = rng.randint(0, min(3, c) if kind == "affine" else 3)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)]
        for comp in components(make_spec(kind, dim, rows)):
            assert comp.rank >= 1
            assert (comp.coarse == "point") == (comp.piece.dim == 0)
            if comp.coarse == "projective":
                assert comp.rank == comp.piece.dim + 1
            if comp.coarse in ("affine", "point"):
                assert comp.rank == 1


def test_split_components_come_in_pairs():
    spec = make_spec("fermat_quadric", 2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    comps = components(spec)
    split = [c for c in comps if c.split_index is not None]
    keyed = Counter((c.element, c.piece.support) for c in split)
    assert all(count == 2 for count in keyed.values())


def reference_components(spec):
    """The element-by-element listing that ``components`` replaced: every
    element's pieces from ``fixed_pieces`` (signs by ``dot``), each one
    classified again, a point pair with equal characters split in two."""
    chars = spec.characters
    out = []
    for g in spec.group:
        for piece in fixed_pieces(spec, g):
            if piece.kind == "empty":
                continue
            pair = piece.kind == "point_pair"
            halves = (1, 2) if pair and chars[piece.support[0]] == chars[piece.support[1]] else (None,)
            coarse, rank, degree = classify_piece(spec, piece)
            out += [InertiaComponent(g, piece, half, rank, coarse, degree) for half in halves]
    return out


def assert_components_match_reference(spec):
    comps, expected = components(spec), reference_components(spec)
    assert comps == expected, spec.to_dict()
    # a piece's dimension is not part of its equality
    assert [c.piece.dim for c in comps] == [c.piece.dim for c in expected]


def test_components_match_reference_random():
    rng = random.Random(20261020)
    seen = Counter()
    for kind in ("affine", "projective", "fermat_quadric"):
        for k in range(8):
            for _ in range(3):
                spec = random_spec(rng, kind, k, max_dim=8)
                assert_components_match_reference(spec)
                masks = {tuple(dot(chi, g) for chi in spec.characters) for g in spec.group}
                seen[kind, is_effective(spec), len(masks) < len(spec.group)] += 1
    # every kind reaches effective and non-effective actions, and actions
    # whose elements share a sign mask
    assert {(kind, effective) for kind, effective, _ in seen} == {
        (kind, effective) for kind in ("affine", "projective", "fermat_quadric") for effective in (True, False)
    }
    assert {kind for kind, _, repeated in seen if repeated} == {"affine", "projective", "fermat_quadric"}


@pytest.mark.parametrize("spec", [etale(12, 12), pn_full(12)], ids=["etale-12-12", "pn-full-12"])
def test_components_match_reference_at_the_rank_limit(spec):
    assert_components_match_reference(spec)


def kernel_specs():
    """Seeded specs of all three kinds with the element that negates every
    coordinate as one generator, so that every sign mask's complement
    is a sign mask too."""
    rng = random.Random(1130)
    specs = []
    for kind in ("affine", "projective", "fermat_quadric"):
        for k in range(1, 7):
            for _ in range(4):
                spec = random_spec(rng, kind, k, max_dim=8)  # its first generator replaced
                specs.append(make_spec(kind, spec.dim, [*map(list, spec.rows[1:]), [1] * spec.num_coords]))
    return specs


def test_components_match_reference_on_kernel_specs():
    # a complement mask replays its twin's pieces with the sectors swapped
    for spec in kernel_specs():
        assert_components_match_reference(spec)
    assert_components_match_reference(make_spec("fermat_quadric", 2, [[1] * 4, [1, 1, 0, 0]]))  # split pairs
    assert_components_match_reference(make_spec("fermat_quadric", 0, [[1, 1]]))


def test_sector_parts_run_once_per_complementary_pair(monkeypatch):
    import mu2sod.inertia as inertia

    seen, real = [], inertia._sector_parts
    monkeypatch.setattr(inertia, "_sector_parts", lambda spec, g, mask: seen.append(mask) or real(spec, g, mask))
    for spec in [*kernel_specs(), pn_full(4), quadric(3), etale(4, 3)]:
        seen.clear()
        components(spec)
        full = (1 << spec.num_coords) - 1
        masks = {sum(dot(chi, g) << i for i, chi in enumerate(spec.characters)) for g in spec.group}
        if spec.kind == "affine":  # one sector: the whole mask is the key
            assert sorted(seen) == sorted(masks)
        else:
            assert sorted(min(mask, mask ^ full) for mask in seen) == sorted({min(m, m ^ full) for m in masks})


def test_components_copy_and_pickle():
    # records of both types, pieces built unchecked by fixed_pieces among them
    spec = make_spec("fermat_quadric", 16, [[1] * 9 + [0] * 9, [1, 1] + [0] * 16])
    for comp in [*components(spec), *components(quadric(2)), *components(etale(3, 2))]:
        clones = [copy.copy(comp), copy.deepcopy(comp)]
        clones += [pickle.loads(pickle.dumps(comp, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is InertiaComponent and type(clone.piece) is LocusPiece
            assert clone == comp and hash(clone) == hash(comp) and repr(clone) == repr(comp)
            assert tuple(clone.piece) == tuple(comp.piece)
