import ast
import itertools
import random
import sys
from collections import Counter
from math import comb
from pathlib import Path

import lefschetz
import pytest

from mu2sod import euler
from mu2sod.euler import (
    EulerError,
    KObject,
    canonical_generators,
    character_normalization,
    gram,
    gram_report,
    is_unipotent_upper,
)
from mu2sod.groups import is_effective, make_spec
from mu2sod.presets import etale, p2_example, pn_full, quadric
from mu2sod.sod import assemble
from test_golden import seeded_projective_spec

TRIV2 = 0


# The Koszul-expansion reference for ``euler._profile`` and ``gram``.


def koszul(spec, obj):
    """Koszul resolution terms (twist, character value, sign).

    One term per subset S of the complement of the support:
    (d - |S|, chi XOR sum of S's coordinate characters, (-1)^|S|).
    """
    euler._check_ambient(spec)
    complement = [i for i in range(spec.num_coords) if i not in set(obj.support)]
    comp_chars = euler._char_values(spec, complement)
    terms = []
    for mask in range(1 << len(complement)):
        value = obj.char
        size = 0
        for i, cv in enumerate(comp_chars):
            if (mask >> i) & 1:
                value ^= cv
                size += 1
        terms.append((obj.twist - size, value, -1 if size % 2 else 1))
    return terms


def euler_pairing(spec, first, second):
    """G-invariant Euler pairing chi^G(first, second)."""
    euler._check_ambient(spec)
    target_chars = euler._char_values(spec, second.support)
    total = 0
    for twist, char_value, sign in koszul(spec, first):
        entries = dict(euler._cohomology_entries(target_chars, second.twist - twist))
        total += sign * entries.get(second.char ^ char_value, 0)
    return total


def cohomology(spec, support, e):
    """H^*(P(V_T), O(e)) as multiplicities per character value, from
    ``euler._cohomology_entries``."""
    out = [0] * (1 << spec.rank)
    for value, m in euler._cohomology_entries(tuple(spec.characters[i] for i in support), e):
        out[value] = m
    return tuple(out)


def brute_cohomology(spec, support, e):
    """Oracle: enumerate monomials one by one and record their characters."""
    chars = [spec.characters[i] for i in support]
    t = len(chars)
    out = [0] * (1 << spec.rank)
    if e >= 0:
        exponent_sets = (
            exps
            for exps in itertools.product(range(e + 1), repeat=t)
            if sum(exps) == e
        )
        sign = 1
    elif e <= -t:
        exponent_sets = (
            exps
            for exps in itertools.product(range(1, -e + 1), repeat=t)
            if sum(exps) == -e
        )
        sign = (-1) ** (t - 1)
    else:
        return tuple(out)
    for exps in exponent_sets:
        value = 0
        for a, cv in zip(exps, chars):
            if a % 2:
                value ^= cv
        out[value] += sign
    return tuple(out)


def test_cohomology_against_enumeration():
    specs = [p2_example(), pn_full(3), make_spec("projective", 2, [[1, 1, 0]])]
    for spec in specs:
        coords = range(spec.num_coords)
        for size in range(1, spec.num_coords + 1):
            for support in itertools.combinations(coords, size):
                for e in range(-7, 8):
                    assert cohomology(spec, support, e) == brute_cohomology(
                        spec, support, e
                    ), (support, e)


def reference_cohomology(chars, rank, e):
    """Reference for ``euler._cohomology_entries``: the dense H^* vector of
    P^(t-1), one slot per character value, filled from a flat table of
    (subset size, character value) counts."""
    t = len(chars)
    out = [0] * (1 << rank)
    if 1 - t <= e <= -1:
        return tuple(out)
    subsets = [(0, 0)]
    for cv in chars:
        subsets += [(size + 1, value ^ cv) for size, value in subsets]
    negative = e < 0
    degree = -e if negative else e
    sign = (-1) ** (t - 1) if negative else 1
    for (size, value), count in Counter(subsets).items():
        # exponents are >= 1 when negative: odd slots start at 1, even slots at 2
        doubled = degree - size - (2 * (t - size) if negative else 0)
        if doubled >= 0 and doubled % 2 == 0:
            out[value] += sign * count * comb(doubled // 2 + t - 1, t - 1)
    return tuple(out)


def test_cohomology_entries_match_dense_reference():
    rng = random.Random(89)
    cases = 0
    repeated = False  # then one character value is reached by subsets of two sizes
    while cases < 20_000:
        rank = rng.randint(0, 5)
        chars = tuple(rng.randrange(1 << rank) for _ in range(rng.randint(1, 7)))
        for e in range(-15, 16):
            dense = reference_cohomology(chars, rank, e)
            expected = [(x, m) for x, m in enumerate(dense) if m]
            entries = euler._cohomology_entries(chars, e)
            assert sorted(entries) == expected, (chars, rank, e)
            cases += 1
        repeated = repeated or len(set(chars)) < len(chars)
    assert repeated


def test_cohomology_p2_examples():
    spec = p2_example()
    # global sections of O(2): x^2, y^2, z^2 invariant; xy, xz, yz twisted
    assert cohomology(spec, (0, 1, 2), 2) == (3, 1, 1, 1)
    # vanishing range
    assert cohomology(spec, (0, 1, 2), -1) == (0, 0, 0, 0)
    assert cohomology(spec, (0, 1, 2), -2) == (0, 0, 0, 0)
    # top cohomology of O(-2) on the line spanned by x, z: basis 1/(xz)
    assert cohomology(spec, (0, 2), -2) == (0, -1, 0, 0)


def test_cohomology_dimension_counts():
    spec = pn_full(3)
    for support in [(0, 1), (0, 1, 2), (0, 1, 2, 3)]:
        m = len(support) - 1
        for e in range(0, 7):
            assert sum(cohomology(spec, support, e)) == comb(m + e, m)
        for e in range(-m - 1, -m - 7, -1):
            assert sum(cohomology(spec, support, e)) == (-1) ** m * comb(-e - 1, m)


def test_cohomology_errors():
    # pairings need a proper ambient space
    with pytest.raises(EulerError):
        gram(etale(2, 1), [KObject((0,), 0, TRIV2)])
    with pytest.raises(EulerError):
        canonical_generators(etale(2, 1), assemble(etale(2, 1)))


def test_quadric_ambient_cohomology_allowed():
    # pairings on the ambient projective space of a quadric spec are defined
    from mu2sod.presets import quadric

    spec = quadric(2)
    vec = cohomology(spec, (0, 1, 2, 3), 1)
    assert len(vec) == 8
    assert sum(vec) == 4  # four ambient coordinates
    assert euler_pairing(spec, KObject((0, 1), 0, 0), KObject((2, 3), 0, 0)) == 0


def test_koszul_examples():
    spec = p2_example()
    # structure sheaf of the line V(x): resolved by O(-1) tensor chi_1 -> O
    assert koszul(spec, KObject((1, 2), 0, TRIV2)) == [(0, 0, 1), (-1, 1, -1)]
    # full support: nothing to resolve
    assert koszul(spec, KObject((0, 1, 2), 5, TRIV2)) == [(5, 0, 1)]
    # skyscraper at [1:0:0] = V(y, z): four terms
    assert koszul(spec, KObject((0,), 0, TRIV2)) == [
        (0, 0, 1),
        (-1, 2, -1),
        (-1, 0, -1),
        (-2, 2, 1),
    ]


def test_koszul_size():
    spec = pn_full(3)
    for size in range(1, 5):
        obj = KObject(tuple(range(size)), 2, 0)
        assert len(koszul(spec, obj)) == 1 << (4 - size)


def test_pairing_line_bundles():
    spec = p2_example()
    full = (0, 1, 2)
    assert euler_pairing(spec, KObject(full, 0, TRIV2), KObject(full, 2, TRIV2)) == 3
    assert euler_pairing(spec, KObject(full, 0, TRIV2), KObject(full, 4, TRIV2)) == 6


def test_pairing_lines_and_points():
    spec = p2_example()
    v_x = KObject((1, 2), 0, TRIV2)
    v_y = KObject((0, 2), 0, TRIV2)
    p_sky = KObject((0,), 0, TRIV2)
    # lines are mutually orthogonal
    assert euler_pairing(spec, v_x, v_y) == 0
    assert euler_pairing(spec, v_y, v_x) == 0
    # the point p lies on V(y): nonzero in the order direction only
    assert euler_pairing(spec, v_y, p_sky) == 1
    assert euler_pairing(spec, p_sky, v_y) == 0
    # p does not lie on V(x): disjoint supports vanish both ways
    assert euler_pairing(spec, v_x, p_sky) == 0
    assert euler_pairing(spec, p_sky, v_x) == 0


def test_skyscraper_twist_is_a_character():
    # O(d) at the point [e_i] carries chi_i^d, so an odd twist changes the class
    spec = pn_full(1)
    line, point = KObject((0, 1), 0, TRIV2), KObject((0,), 1, TRIV2)
    assert point.twist == 1
    assert gram(spec, [line, point])[0][1] == 0 == lefschetz.pairing(spec.characters, spec.rank, line, point)
    assert gram(spec, [line, KObject((0,), 0, TRIV2)])[0][1] == 1
    rng = random.Random(23)
    for spec in [pn_full(1), pn_full(2), p2_example()]:
        others = _objects_with_twists(rng, spec, 6, range(-3, 4))
        for i, d in itertools.product(range(spec.num_coords), range(-5, 6)):
            twin = KObject((i,), 0, spec.characters[i] if d % 2 else TRIV2)
            objects = [KObject((i,), d, TRIV2), twin, *others]
            matrix = trace_matrix(spec, objects)
            assert gram(spec, objects) == matrix
            assert matrix[0] == matrix[1] and [row[0] for row in matrix] == [row[1] for row in matrix]


def test_canonical_generators_p2():
    spec = p2_example()
    objects, sizes = canonical_generators(spec, assemble(spec))
    assert sizes == (3, 2, 2, 2, 1, 1, 1)
    assert [(o.support, o.twist) for o in objects] == [
        ((0, 1, 2), 0),
        ((0, 1, 2), 2),
        ((0, 1, 2), 4),
        ((1, 2), 0),
        ((1, 2), 2),
        ((0, 2), 0),
        ((0, 2), 2),
        ((0, 1), 0),
        ((0, 1), 2),
        ((0,), 0),
        ((1,), 0),
        ((2,), 0),
    ]


def test_canonical_generators_p1():
    spec = pn_full(1)
    objects, sizes = canonical_generators(spec, assemble(spec))
    assert sizes == (2, 1, 1)
    # the + sector point [0:1] precedes the - sector point [1:0]
    assert [(o.support, o.twist) for o in objects] == [
        ((0, 1), 0),
        ((0, 1), 2),
        ((1,), 0),
        ((0,), 0),
    ]


def test_canonical_generators_trivial_group_beilinson():
    spec = make_spec("projective", 2, [])
    objects, sizes = canonical_generators(spec, assemble(spec))
    assert sizes == (3,)
    assert [o.twist for o in objects] == [0, 1, 2]  # no doubling


def test_canonical_generators_rejects():
    from mu2sod.presets import quadric

    with pytest.raises(EulerError):
        canonical_generators(quadric(2), assemble(quadric(2)))
    with pytest.raises(EulerError):
        canonical_generators(etale(2, 1), assemble(etale(2, 1)))
    undetermined = make_spec("projective", 2, [[1, 0, 0]])
    with pytest.raises(EulerError):
        canonical_generators(undetermined, assemble(undetermined))


def test_gram_p1():
    spec = pn_full(1)
    objects, _ = canonical_generators(spec, assemble(spec))
    matrix = gram(spec, objects)
    assert is_unipotent_upper(matrix)
    assert [row[:2] for row in matrix[:2]] == [[1, 2], [0, 1]]
    assert len(matrix) == 4


def test_gram_p2_plane_block():
    spec = p2_example()
    objects, _ = canonical_generators(spec, assemble(spec))
    matrix = gram(spec, objects)
    assert [row[:3] for row in matrix[:3]] == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]


def test_gram_single_object():
    spec = p2_example()
    assert gram(spec, [KObject((0,), 0, TRIV2)]) == [[1]]


def test_generators_are_exceptional():
    for spec in [pn_full(1), p2_example(), pn_full(3)]:
        objects, _ = canonical_generators(spec, assemble(spec))
        assert all(euler_pairing(spec, o, o) == 1 for o in objects)


def test_fully_faithful_shadow_binomials():
    for spec in [p2_example(), pn_full(2), pn_full(3), pn_full(4)]:
        report = assemble(spec)
        for comp in report.components:
            if comp.coarse != "projective":
                continue
            m, step = comp.piece.dim, comp.degree
            for a in range(m + 1):
                for b in range(a, m + 1):
                    first = KObject(comp.piece.support, step * a, 0)
                    second = KObject(comp.piece.support, step * b, 0)
                    assert euler_pairing(spec, first, second) == comb(m + b - a, m)


def test_semiorthogonality_shadow_presets():
    for spec in [pn_full(1), p2_example(), pn_full(2), pn_full(3), pn_full(4)]:
        result = gram_report(spec, assemble(spec))
        assert result.triangular
        assert not result.normalized  # trivial characters already work


def test_bilinearity_koszul_expansion():
    # chi(E, F) equals the signed sum of pairings against F's Koszul terms
    rng = random.Random(31)
    spec = pn_full(2)
    full = tuple(range(spec.num_coords))
    supports = [s for size in range(1, 4) for s in itertools.combinations(range(3), size)]
    for _ in range(40):
        first = KObject(
            rng.choice(supports), rng.randint(-2, 4), rng.randrange(4)
        )
        second = KObject(
            rng.choice(supports), rng.randint(-2, 4), rng.randrange(4)
        )
        direct = euler_pairing(spec, first, second)
        expanded = sum(
            sign * euler_pairing(spec, first, KObject(full, twist, cv))
            for twist, cv, sign in koszul(spec, second)
        )
        assert direct == expanded


def test_pairing_against_double_expansion_oracle():
    # fully independent route: resolve *both* objects into ambient line
    # bundles, then pair line bundles through brute-force monomial
    # enumeration; chi(O(a) x s, O(b) x t) = mult of s+t in H^*(O(b-a))
    rng = random.Random(37)
    for spec in [p2_example(), pn_full(2)]:
        full = tuple(range(spec.num_coords))
        supports = [
            s
            for size in range(1, spec.num_coords + 1)
            for s in itertools.combinations(range(spec.num_coords), size)
        ]
        for _ in range(25):
            first = KObject(
                rng.choice(supports),
                rng.randint(-2, 4),
                rng.randrange(1 << spec.rank),
            )
            second = KObject(
                rng.choice(supports),
                rng.randint(-2, 4),
                rng.randrange(1 << spec.rank),
            )
            oracle = sum(
                s1
                * s2
                * brute_cohomology(spec, full, b - a)[cv1 ^ cv2]
                for a, cv1, s1 in koszul(spec, first)
                for b, cv2, s2 in koszul(spec, second)
            )
            assert euler_pairing(spec, first, second) == oracle


def test_character_normalization_recovers_twist():
    spec = p2_example()
    objects, sizes = canonical_generators(spec, assemble(spec))
    # deliberately mis-twist the V(x) block (positions 3, 4) by chi_1
    chi1 = 1
    broken = list(objects)
    broken[3] = broken[3].twisted(chi1)
    broken[4] = broken[4].twisted(chi1)
    assert not is_unipotent_upper(gram(spec, broken))
    twists = character_normalization(spec, broken, sizes)
    assert twists is not None
    fixed = []
    start = 0
    for size, psi in zip(sizes, twists):
        fixed.extend(o.twisted(psi) for o in broken[start : start + size])
        start += size
    assert is_unipotent_upper(gram(spec, fixed))
    assert twists[1] == chi1  # undoes the damage on the broken block


def test_gram_report_block_sizes_match_ranks():
    spec = pn_full(3)
    report = assemble(spec)
    result = gram_report(spec, report)
    assert result.block_sizes == tuple(c.rank for c in report.components)
    assert len(result.matrix) == report.total_rank


def pairwise_gram(spec, objects):
    """Reference: one ``euler_pairing`` per ordered pair."""
    return [[euler_pairing(spec, e, f) for f in objects] for e in objects]


def random_classified_projective(rng, n):
    """Random effective projective spec with n = k whose canonical
    generators exist (fully classified pieces)."""
    while True:
        spec = make_spec("projective", n, [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(n)])
        try:
            return spec, canonical_generators(spec, assemble(spec))[0]
        except EulerError:
            continue


def test_gram_matches_pairwise_on_presets():
    for spec in [p2_example(), pn_full(2), pn_full(3), pn_full(4)]:
        objects, _ = canonical_generators(spec, assemble(spec))
        assert gram(spec, objects) == pairwise_gram(spec, objects)


def test_gram_matches_pairwise_on_random_classified_specs():
    rng = random.Random(53)
    for n in (1, 2, 2, 3, 3, 3):
        spec, objects = random_classified_projective(rng, n)
        assert gram(spec, objects) == pairwise_gram(spec, objects)


def _spec_with_repeats(rng, n, k, kind="projective"):
    """Random action whose coordinates 0 and 1 carry the same character,
    so the Koszul terms of a support missing both merge in pairs."""
    c = n + (2 if kind == "fermat_quadric" else 1)
    rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)]
    for row in rows:
        row[1] = row[0]
    return make_spec(kind, n, rows)


def _random_objects(rng, spec, count):
    """Every single-coordinate support, then random supports, twists and
    characters up to ``count`` objects."""
    c = spec.num_coords
    objects = [KObject((i,), 0, rng.randrange(1 << spec.rank)) for i in range(c)]
    while len(objects) < count:
        objects.append(
            KObject(
                tuple(rng.sample(range(c), rng.randint(1, c))),
                rng.randint(-8, 8),
                rng.randrange(1 << spec.rank),
            )
        )
    return objects


def _branches(spec, objects):
    """Which cohomology branches the pairings reach: sections (e >= 0), the
    vanishing window 1 - t <= e <= -1 and Serre duality (e <= -t)."""
    seen = set()
    for first in objects:
        for twist, _, _ in koszul(spec, first):
            for second in objects:
                e, t = second.twist - twist, len(second.support)
                seen.add("sections" if e >= 0 else "window" if e > -t else "serre")
    return seen


def _merges(spec, obj) -> bool:
    """Whether two of ``obj``'s Koszul terms share (twist, character).
    Such terms share the subset size, hence the sign, so they add up
    and never cancel."""
    keys = [(twist, value) for twist, value, _ in koszul(spec, obj)]
    return len(set(keys)) < len(keys)


def koszul_profile(spec, obj):
    """Reference for ``euler._profile``: ``obj``'s ``koszul`` terms summed
    per (twist, character value)."""
    summed = {}
    for twist, value, sign in koszul(spec, obj):
        summed[twist, value] = summed.get((twist, value), 0) + sign
    return summed


def assert_profiles_match_koszul(spec, objects):
    for obj in objects:
        assert euler._profile(spec, obj) == koszul_profile(spec, obj), obj


def test_gram_matches_pairwise_on_random_objects():
    # arbitrary supports, twists and characters, including non-triangular
    # Grams and the ambient space of a quadric
    rng = random.Random(59)
    from mu2sod.presets import quadric

    specs = [p2_example(), pn_full(3), make_spec("projective", 3, [[1, 1, 0, 0], [0, 1, 1, 0]]), quadric(2)]
    for spec in specs:
        c = spec.num_coords
        objects = [
            KObject(
                tuple(rng.sample(range(c), rng.randint(1, c))),
                rng.randint(-3, 4),
                rng.randrange(1 << spec.rank),
            )
            for _ in range(12)
        ]
        assert_profiles_match_koszul(spec, objects)
        assert gram(spec, objects) == pairwise_gram(spec, objects)

    # where the index is busiest: k = 5 and 6 and a quadric ambient, every
    # single-coordinate support, twists reaching the vanishing window and
    # Serre duality, and coordinates sharing a character
    busiest = [
        _spec_with_repeats(rng, 5, 5),
        _spec_with_repeats(rng, 6, 6),
        _spec_with_repeats(rng, 4, 5, "fermat_quadric"),
        quadric(4),
    ]
    for spec in busiest:
        objects = _random_objects(rng, spec, 28)
        assert _branches(spec, objects) == {"sections", "window", "serre"}
        assert_profiles_match_koszul(spec, objects)
        matrix = gram(spec, objects)
        assert matrix == pairwise_gram(spec, objects)
        assert any(x == 0 for row in matrix for x in row) and any(x for row in matrix for x in row)
        if spec.characters[0] == spec.characters[1]:
            assert any(_merges(spec, obj) for obj in objects)


def greedy_normalization_reference(spec, objects, sizes):
    """The greedy block search, one ``euler_pairing`` per pair."""
    placed, chosen, start = [], [], 0
    for size in sizes:
        block = objects[start : start + size]
        start += size
        for psi in spec.group:
            twisted = [obj.twisted(psi) for obj in block]
            if all(euler_pairing(spec, t, earlier) == 0 for t in twisted for earlier in placed):
                break
        else:
            return None
        chosen.append(psi)
        placed.extend(twisted)
    return chosen


def test_character_normalization_matches_pairwise_greedy():
    # non-effective classified specs, where trivial characters fail
    rng = random.Random(67)
    cases = [
        p2_example(),  # trivial characters work
        make_spec("projective", 3, [[1, 1, 1, 1]]),  # no character works
    ]
    while len(cases) < 16:
        n = rng.randint(1, 3)
        k = rng.randint(1, n + 1)
        spec = make_spec("projective", n, [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(k)])
        if is_effective(spec):
            continue
        try:
            canonical_generators(spec, assemble(spec))
        except EulerError:
            continue
        cases.append(spec)
    outcomes = set()
    for spec in cases:
        objects, sizes = canonical_generators(spec, assemble(spec))
        expected = greedy_normalization_reference(spec, objects, sizes)
        assert character_normalization(spec, objects, sizes) == expected, spec.to_dict()
        outcomes.add("none" if expected is None else "trivial" if not any(expected) else "twisted")
    assert outcomes == {"none", "trivial", "twisted"}
    # arbitrary objects in blocks of one to three, whose rows against the
    # placed objects mix signs, so a row can sum to 0 without vanishing
    for spec in [p2_example(), pn_full(2), _spec_with_repeats(rng, 3, 3)]:
        for _ in range(8):
            objects = _random_objects(rng, spec, spec.num_coords + 6)
            sizes, left = [], len(objects)
            while left:
                sizes.append(min(left, rng.randint(1, 3)))
                left -= sizes[-1]
            expected = greedy_normalization_reference(spec, objects, tuple(sizes))
            assert character_normalization(spec, objects, tuple(sizes)) == expected


def test_gram_report_expands_each_object_once():
    # the seeded golden spec whose Gram needs character normalization
    spec = seeded_projective_spec(0, 4, 5, False)
    report = assemble(spec)
    objects, sizes = canonical_generators(spec, report)
    for cache in (euler._parity_classes, euler._cohomology_entries):
        cache.cache_clear()
    result = gram_report(spec, report)
    assert result.normalized and result.triangular
    assert len(result.matrix) == 160
    # profiles come from the parity table, and each support or complement
    # character tuple is enumerated once
    char_tuples = {
        tuple(c for i, c in enumerate(spec.characters) if (i in obj.support) == inside)
        for obj in objects
        for inside in (True, False)
    }
    assert euler._parity_classes.cache_info().misses == len(char_tuples)
    matrix = gram(spec, list(result.objects))
    # the normalized matrix is the Gram of the twisted objects
    assert [list(r) for r in result.matrix] == matrix
    assert list(result.twists) == character_normalization(spec, objects, sizes)


# The index that ``gram`` and ``character_normalization`` used before rows
# were packed: one (column, multiplicity) list per profile key.


def reference_index_targets(spec, index, twists, targets, first_column):
    """File target j = first_column, ... under every profile key it pairs
    with: H^*(O(f.twist - t)) has multiplicity m at x, so a profile term
    (t, f.char ^ x) with sign s adds s * m to column j."""
    for j, f in enumerate(targets, first_column):
        chars = tuple(spec.characters[i] for i in f.support)
        for t in twists:
            for x, m in euler._cohomology_entries(chars, f.twist - t):
                index.setdefault((t, f.char ^ x), []).append((j, m))


def reference_pair_row(profile, index, psi, width):
    """Pairings of the psi-twist of ``profile``'s object with the indexed
    targets, one per column."""
    row = [0] * width
    for (t, x), s in profile.items():
        for j, m in index.get((t, x ^ psi), ()):
            row[j] += s * m
    return row


def reference_gram(spec, objects):
    profiles = [euler._profile(spec, e) for e in objects]
    index = {}
    reference_index_targets(spec, index, {t for p in profiles for t, _ in p}, objects, 0)
    return [reference_pair_row(p, index, 0, len(objects)) for p in profiles]


def reference_normalization(spec, objects, sizes):
    profiles = [euler._profile(spec, obj) for obj in objects]
    profile_twists = {t for p in profiles for t, _ in p}
    index, chosen, placed = {}, [], 0
    for size in sizes:
        block = range(placed, placed + size)
        for psi in spec.group:
            if not any(any(reference_pair_row(profiles[i], index, psi, placed)) for i in block):
                break
        else:
            return None
        chosen.append(psi)
        twisted = [objects[i].twisted(psi) for i in block]
        reference_index_targets(spec, index, profile_twists, twisted, placed)
        placed += size
    return chosen


def lane_bound(spec, objects):
    """The largest sum of |s| over a profile times the largest |m| of a
    target's cohomology entries at a profile twist."""
    profiles = [euler._profile(spec, obj) for obj in objects]
    twists = {t for p in profiles for t, _ in p}
    biggest = max(
        (
            abs(m)
            for f in objects
            for t in twists
            for _, m in euler._cohomology_entries(tuple(spec.characters[i] for i in f.support), f.twist - t)
        ),
        default=0,
    )
    return biggest * max(sum(map(abs, p.values())) for p in profiles)


def assert_narrowest_lane(spec, objects):
    """The lane holds the bound with a sign bit, and the next narrower
    lane does not; returns the lane size in bytes."""
    profiles = [euler._profile(spec, obj) for obj in objects]
    lane = euler._empty_index(spec, profiles, objects)[1]
    bound = lane_bound(spec, objects)
    narrower = [size for size in (1, 2, 4, 8) if size < lane] if lane <= 8 else [lane - 1]
    assert bound < 1 << (8 * lane - 1)
    assert not narrower or bound >= 1 << (8 * narrower[-1] - 1)
    return lane


def _objects_with_twists(rng, spec, count, twists):
    c = spec.num_coords
    return [
        KObject(tuple(rng.sample(range(c), rng.randint(1, c))), rng.choice(twists), rng.randrange(1 << spec.rank))
        for _ in range(count)
    ]


def _random_blocks(rng, count):
    sizes, left = [], count
    while left:
        sizes.append(min(left, rng.randint(1, 3)))
        left -= sizes[-1]
    return tuple(sizes)


def test_packed_gram_and_normalization_match_reference_index():
    rng = random.Random(79)
    small = list(range(-6, 7))
    hundreds = [sign * rng.randint(100, 900) for sign in (1, -1) for _ in range(20)]
    lanes, negative, outcomes = Counter(), 0, set()
    for case in range(240):
        kind = rng.choice(["projective", "projective", "fermat_quadric"])
        n = rng.randint(1, 7 if case % 2 else 4)
        c = n + (2 if kind == "fermat_quadric" else 1)
        k = rng.randint(0, min(c, 5))
        spec = make_spec(kind, n, [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)])
        twists = hundreds + small if case % 2 else small
        objects = _objects_with_twists(rng, spec, rng.randint(1, 12), twists)
        expected = reference_gram(spec, objects)
        assert gram(spec, objects) == expected, (spec.to_dict(), objects)
        lane = assert_narrowest_lane(spec, objects)
        lanes[min(lane, 9)] += 1
        assert max(abs(x) for row in expected for x in row) < 1 << (8 * lane - 1)
        negative += any(x < 0 for row in expected for x in row)
        sizes = _random_blocks(rng, len(objects))
        chosen = reference_normalization(spec, objects, sizes)
        assert character_normalization(spec, objects, sizes) == chosen
        outcomes.add("none" if chosen is None else "trivial" if not any(chosen) else "twisted")
    # every machine lane size and the int.from_bytes fallback beyond 64 bits
    assert set(lanes) == {1, 2, 4, 8, 9}, lanes
    assert negative and outcomes == {"none", "trivial", "twisted"}


def test_packed_gram_matches_reference_on_golden_normalized_spec():
    spec = seeded_projective_spec(0, 4, 5, False)
    objects, sizes = canonical_generators(spec, assemble(spec))
    assert len(objects) == 160
    assert gram(spec, objects) == reference_gram(spec, objects)
    twists = character_normalization(spec, objects, sizes)
    assert twists == reference_normalization(spec, objects, sizes) and any(twists)
    per_object = [psi for psi, size in zip(twists, sizes) for _ in range(size)]
    twisted = [obj.twisted(psi) for obj, psi in zip(objects, per_object)]
    assert gram(spec, twisted) == reference_gram(spec, twisted)
    for spec in [p2_example(), pn_full(3), pn_full(4), pn_full(5)]:
        objects, _ = canonical_generators(spec, assemble(spec))
        assert gram(spec, objects) == reference_gram(spec, objects)


# The Lefschetz trace of ``tests/lefschetz.py`` shares no code with the
# package: it checks ``gram`` and the Koszul reference from outside.


def trace_matrix(spec, objects):
    return [[lefschetz.pairing(spec.characters, spec.rank, e, f) for f in objects] for e in objects]


def test_lefschetz_oracle_imports_only_the_standard_library():
    # independence: no route to koszul, _cohomology_entries, _parity_classes,
    # _profile or the index helpers of gram
    tree = ast.parse(Path(lefschetz.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.partition(".")[0])
        else:
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert name not in ("__import__", "import_module"), "dynamic import"
    assert "json" in imported and "mu2sod" not in imported
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


def test_lefschetz_trace_matches_gram_and_koszul_pairing():
    # 12 random objects on each spec, twists from -6 to 6: 3,744 pairs
    rng = random.Random(97)
    drawn = []
    while len(drawn) < 20:
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        drawn.append(make_spec("projective", n, [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(k)]))
    assert {is_effective(spec) for spec in drawn} == {True, False}
    branches = set()
    for spec in [p2_example(), pn_full(2), pn_full(3), *drawn, quadric(1), quadric(2), quadric(3)]:
        objects = _objects_with_twists(rng, spec, 12, range(-6, 7))
        assert gram(spec, objects) == trace_matrix(spec, objects) == pairwise_gram(spec, objects)
        branches |= _branches(spec, objects)
    assert branches == {"sections", "window", "serre"}


def test_lefschetz_trace_matches_canonical_grams():
    for spec in [p2_example(), pn_full(1), pn_full(2), pn_full(3)]:
        objects, _ = canonical_generators(spec, assemble(spec))
        assert gram(spec, objects) == trace_matrix(spec, objects)


def test_lefschetz_trace_matches_degree_one_grams():
    # every element of a scalar action fixes all of P^n with no residual
    # signs, so each block is O(0), ..., O(n) of a degree-1 quotient map
    rng = random.Random(107)
    specs = []
    for n in (1, 2, 3):
        for k in range(4):
            rows = [[rng.randint(0, 1)] * (n + 1) for _ in range(k)]
            specs.append(make_spec("projective", n, rows))
    assert {row[0] for spec in specs for row in spec.rows} == {0, 1}  # all-ones rows and zero rows
    for spec in specs:
        report = assemble(spec)
        assert {(c.degree, c.piece.dim) for c in report.components} == {(1, spec.dim)}
        objects, sizes = canonical_generators(spec, report)
        assert [o.twist for o in objects] == list(range(spec.dim + 1)) * len(sizes)
        assert gram(spec, objects) == trace_matrix(spec, objects), spec.to_dict()
        result = gram_report(spec, report)
        assert result.matrix == tuple(map(tuple, trace_matrix(spec, result.objects))), spec.to_dict()


def test_lefschetz_trace_matches_sampled_large_grams():
    # pn-full n = 6 (N = 448) and the golden normalized spec (N = 160),
    # whose objects carry the normalization's twists
    rng = random.Random(101)
    pn6 = pn_full(6)
    objects, _ = canonical_generators(pn6, assemble(pn6))
    normalized = seeded_projective_spec(0, 4, 5, False)
    result = gram_report(normalized, assemble(normalized))
    assert result.normalized and any(o.char for o in result.objects) and len(result.objects) == 160
    cases = [(pn6, objects, gram(pn6, objects), 300), (normalized, result.objects, result.matrix, 400)]
    for spec, objects, matrix, samples in cases:
        entries = Counter()
        for _ in range(samples):
            i, j = rng.randrange(len(objects)), rng.randrange(len(objects))
            entries[matrix[i][j] != 0] += 1
            assert matrix[i][j] == lefschetz.pairing(spec.characters, spec.rank, objects[i], objects[j]), (i, j)
        assert entries[True] and entries[False]


def test_k_theory_shadow_on_seeded_specs():
    # On an effective action whose inertia components are all classified,
    # the canonical Gram is unipotent upper triangular with diagonal blocks
    # C(m + b - a, m) and trivial characters; non-effective specs lie
    # outside the hypothesis and are only counted.
    rng = random.Random(103)
    effective = outside = 0
    while effective < 200:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        spec = make_spec("projective", n, [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(k)])
        report = assemble(spec)
        try:
            canonical_generators(spec, report)
        except EulerError:
            continue
        if not is_effective(spec):
            outside += 1
            continue
        result = gram_report(spec, report)
        assert result.triangular and not result.normalized, spec.to_dict()
        start = 0
        for size in result.block_sizes:
            block = [list(row[start : start + size]) for row in result.matrix[start : start + size]]
            m = size - 1
            assert block == [[comb(m + b - a, m) if b >= a else 0 for b in range(size)] for a in range(size)]
            start += size
        effective += 1
    assert outside
