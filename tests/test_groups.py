import itertools
import json
import random

import pytest

from mu2sod.groups import (
    SpecError,
    bit_list,
    dot,
    f2_rank,
    is_effective,
    make_spec,
    parse_spec,
)
from mu2sod.presets import p2_example
from mu2sod.sod import assemble

P2_DOC = json.dumps(
    {
        "space": {"kind": "projective", "dim": 2},
        "group_rank": 2,
        "action": [[1, 0, 0], [0, 1, 0]],
    }
)


def pairing(chi: int, g: int) -> int:
    return -1 if dot(chi, g) else 1


def projective_kernel(spec):
    """Reference for the kernel that ``sod.assemble`` reads off the
    components: the elements acting trivially, element by element.

    Affine: all coordinate characters evaluate to +1.  Projective and
    quadric: all coordinate characters agree (the element acts by a
    global scalar, which is trivial in PGL).
    """
    kernel = []
    for g in spec.group:
        signs = [dot(chi, g) for chi in spec.characters]
        if spec.kind == "affine":
            if not any(signs):
                kernel.append(g)
        elif len(set(signs)) <= 1:
            kernel.append(g)
    return kernel


def test_pairing_examples():
    # elements and characters are ints, bit i standing for generator i
    assert pairing(0b01, 0b11) == -1
    assert pairing(0b00, 0b11) == 1
    assert pairing(0b00, 0b10) == 1
    assert pairing(0b11, 0b11) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_pairing_multiplicative_exhaustive(k):
    size = 1 << k
    for chi in range(size):
        # independent oracle: the F_2 dot product of the little-endian lists
        row = [pairing(chi, g) for g in range(size)]
        lists = [bit_list(g, k) for g in range(size)]
        chi_list = bit_list(chi, k)
        assert row == [
            (-1) ** sum(x * y for x, y in zip(chi_list, lists[g])) for g in range(size)
        ]
        for g in range(size):
            for h in range(size):
                assert row[g ^ h] == row[g] * row[h]


def test_parse_p2_document():
    spec = parse_spec(P2_DOC)
    assert spec.kind == "projective"
    assert spec.num_coords == 3
    assert spec.characters == (0b01, 0b10, 0b00)
    assert spec == p2_example()


def test_parse_trivial_group():
    spec = parse_spec(
        json.dumps({"space": {"kind": "projective", "dim": 2}, "group_rank": 0, "action": []})
    )
    assert spec.rank == 0
    assert list(spec.group) == [0]


def test_parse_dimension_mismatch():
    doc = {"space": {"kind": "affine", "dim": 3}, "group_rank": 1, "action": [[1, 0, 0, 0]]}
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))


def test_parse_malformed():
    with pytest.raises(SpecError):
        parse_spec("not json at all {")
    with pytest.raises(SpecError):
        parse_spec(json.dumps({"space": {"kind": "projective", "dim": 2}}))
    with pytest.raises(SpecError):
        parse_spec(json.dumps({"space": {"kind": "nonsense", "dim": 2}, "group_rank": 0, "action": []}))


def test_parse_rank_row_mismatch():
    doc = {"space": {"kind": "projective", "dim": 1}, "group_rank": 2, "action": [[1, 0]]}
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))


def test_parse_rejects_non_bits():
    base = {"space": {"kind": "projective", "dim": 1}, "group_rank": 1}
    for action in [[[1, 2]], [[0.5, 0]], [[1.0, 0]], [["1", "0"]], "nope", [[1, 0], [0, 1]]]:
        with pytest.raises(SpecError):
            parse_spec(json.dumps({**base, "action": action}))
    with pytest.raises(SpecError):
        parse_spec(json.dumps({"space": {"kind": "projective", "dim": -1}, "group_rank": 0, "action": []}))


def test_parse_rejects_booleans():
    # bool is an int subclass in Python; JSON true/false is not a number here
    base = {"space": {"kind": "projective", "dim": 1}, "group_rank": 1, "action": [[1, 0]]}
    docs = [
        {**base, "space": {"kind": "projective", "dim": True}},
        {**base, "group_rank": True},
        {**base, "action": [[True, 0]]},
        {**base, "action": [[1, False]]},
    ]
    for doc in docs:
        with pytest.raises(SpecError):
            parse_spec(json.dumps(doc))
    assert parse_spec(json.dumps(base)).dim == 1


def test_affine_rank_exceeding_coordinates_rejected():
    with pytest.raises(SpecError):
        make_spec("affine", 2, [[1, 0], [0, 1], [1, 1]])


def test_projective_kernel_p2_example():
    spec = p2_example()
    # oracle: exhaustive check that the sign vector is constant
    expected = []
    for g in spec.group:
        signs = {pairing(chi, g) for chi in spec.characters}
        if len(signs) == 1:
            expected.append(g)
    assert projective_kernel(spec) == expected == [0]
    assert assemble(spec).kernel == (0,)
    assert is_effective(spec)


def test_projective_kernel_global_scalar():
    spec = make_spec("projective", 1, [[1, 1]])
    assert projective_kernel(spec) == [0, 1]
    assert assemble(spec).kernel == (0, 1)
    assert not is_effective(spec)


def test_affine_kernel():
    spec = make_spec("affine", 2, [[1, 0]])
    assert projective_kernel(spec) == [0]
    assert assemble(spec).kernel == (0,)
    assert is_effective(spec)


def test_kernel_is_a_subgroup():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(0, 4)
        rows = [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(k)]
        kernel = assemble(make_spec("projective", n, rows)).kernel
        members = set(kernel)
        assert 0 in members
        for g, h in itertools.product(kernel, repeat=2):
            assert g ^ h in members


def test_is_effective_matches_kernel_on_all_kinds():
    # the closed form (characters span all k dimensions) and the kernel
    # that assemble reads off the components, against the element-by-element
    # kernel, including ranks above the coordinate count and dimension 0
    rng = random.Random(11)
    offsets = {"affine": 0, "projective": 1, "fermat_quadric": 2}
    seen = set()
    for _ in range(400):
        kind = rng.choice(sorted(offsets))
        dim = rng.randint(0, 4)
        c = dim + offsets[kind]
        k = rng.randint(0, c if kind == "affine" else c + 1)
        spec = make_spec(kind, dim, [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)])
        report, kernel = assemble(spec), tuple(projective_kernel(spec))
        assert report.kernel == kernel, spec.to_dict()
        effective = kernel == (0,)
        assert report.effective == is_effective(spec) == effective, spec.to_dict()
        seen.add((kind, dim == 0, effective))
    assert len(seen) == 11  # all but a non-effective action on A^0, where k = 0


# degenerate specs and their kernels: on A^0 and P^0 every element fixes
# the whole space; on the quadric x0^2 + x1^2 = 0 with equal characters the
# point pair splits, and each element must be listed once
DEGENERATE_KERNELS = {
    "affine-dim-0": (make_spec("affine", 0, []), (0,)),
    "p0-k1": (make_spec("projective", 0, [[1]]), (0, 1)),
    "quadric-dim-0-equal-characters": (make_spec("fermat_quadric", 0, [[1, 1], [0, 0]]), (0, 1, 2, 3)),
    "affine-zero-row": (make_spec("affine", 2, [[1, 0], [0, 0]]), (0, 2)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_KERNELS))
def test_assemble_kernel_degenerate(name):
    spec, kernel = DEGENERATE_KERNELS[name]
    report = assemble(spec)
    assert report.kernel == kernel == tuple(projective_kernel(spec))
    assert report.effective == (kernel == (0,)) == is_effective(spec)


def test_elements_order():
    # the group enumerates by integer value; bit i is generator i
    spec = make_spec("projective", 2, [[1, 0, 0], [0, 1, 0]])
    assert [bit_list(g, 2) for g in spec.group] == [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert list(make_spec("projective", 3, [[1, 0, 0, 0]] * 3).group) == list(range(8))


def test_f2_rank_against_span_size():
    # the span of r independent vectors has 2^r elements
    rng = random.Random(31)
    for _ in range(300):
        values = [rng.randrange(1 << 6) for _ in range(rng.randint(0, 7))]
        span = {0}
        for v in values:
            span |= {s ^ v for s in span}
        assert 1 << f2_rank(values) == len(span), values
    assert f2_rank([]) == f2_rank([0, 0]) == 0
    assert f2_rank([0b011, 0b101, 0b110]) == 2


def reference_f2_rank(values):
    """The XOR basis that ``f2_rank`` replaced: each basis vector clears its
    leading bit from the next value by taking the smaller of v and v ^ b."""
    basis = []
    for v in values:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def test_f2_rank_matches_reference():
    rng = random.Random(37)
    for width in (1, 3, 8, 13):
        for _ in range(200):
            values = [rng.randrange(1 << width) for _ in range(rng.randint(0, 10))]
            if values and rng.random() < 0.3:  # repeated and dependent values
                values += [values[0], values[0] ^ values[-1]]
            assert f2_rank(values) == reference_f2_rank(values), values
    # generators are consumed once
    assert f2_rank(v for v in (1, 2, 3, 4)) == 3


def test_action_entries_exact_zero_one_ints():
    class Bit(int):
        pass

    spec = make_spec("projective", 1, [[Bit(1), Bit(0)], [0, 1]])
    assert spec.characters == (1, 2)
    for row in ([True, 0], [1, 2], [1.0, 0], [0, -1], [None, 0], [[1], 0], ["1", "0"]):
        with pytest.raises(SpecError, match="must be 0 or 1"):
            make_spec("projective", 1, [row])
