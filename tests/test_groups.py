import itertools
import json
import random

import pytest

from mu2sod.groups import (
    SpecError,
    bit_value,
    bits_from_value,
    elements,
    identity,
    is_effective,
    make_spec,
    pairing,
    parse_spec,
    projective_kernel,
    span,
    xor,
)
from mu2sod.presets import p2_example

P2_DOC = json.dumps(
    {
        "space": {"kind": "projective", "dim": 2},
        "group_rank": 2,
        "action": [[1, 0, 0], [0, 1, 0]],
    }
)


def test_pairing_examples():
    assert pairing((1, 0), (1, 1)) == -1
    assert pairing((0, 0), (1, 1)) == 1
    assert pairing((0, 0), (0, 1)) == 1
    assert pairing((1, 1), (1, 1)) == 1


def test_pairing_length_mismatch():
    with pytest.raises(ValueError):
        pairing((1, 0), (1,))


@pytest.mark.parametrize("k", range(1, 7))
def test_pairing_multiplicative_exhaustive(k):
    size = 1 << k
    bits = [bits_from_value(v, k) for v in range(size)]
    for chi_v in range(size):
        # independent oracle: sign via popcount of the AND mask
        row = [pairing(bits[chi_v], bits[g_v]) for g_v in range(size)]
        assert row == [(-1) ** bin(chi_v & g_v).count("1") for g_v in range(size)]
        for g_v in range(size):
            for h_v in range(size):
                assert row[g_v ^ h_v] == row[g_v] * row[h_v]


def test_parse_p2_document():
    spec = parse_spec(P2_DOC)
    assert spec.kind == "projective"
    assert spec.num_coords == 3
    assert spec.characters == ((1, 0), (0, 1), (0, 0))
    assert spec == p2_example()


def test_parse_trivial_group():
    spec = parse_spec(
        json.dumps({"space": {"kind": "projective", "dim": 2}, "group_rank": 0, "action": []})
    )
    assert spec.rank == 0
    assert spec.group == ((),)


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
    assert projective_kernel(spec) == expected == [(0, 0)]
    assert is_effective(spec)


def test_projective_kernel_global_scalar():
    spec = make_spec("projective", 1, [[1, 1]])
    assert projective_kernel(spec) == [(0,), (1,)]
    assert not is_effective(spec)


def test_affine_kernel():
    spec = make_spec("affine", 2, [[1, 0]])
    assert projective_kernel(spec) == [(0,)]
    assert is_effective(spec)


def test_kernel_is_a_subgroup():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(0, 4)
        rows = [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(k)]
        kernel = projective_kernel(make_spec("projective", n, rows))
        members = set(kernel)
        assert identity(k) in members
        for g, h in itertools.product(kernel, repeat=2):
            assert xor(g, h) in members


def test_span_examples():
    assert span([(1, 0)]) == [(0, 0), (1, 0)]
    assert span([(1, 0), (0, 1)]) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert span([], rank=2) == [(0, 0)]
    with pytest.raises(ValueError):
        span([])


def test_span_idempotent_and_contains_input():
    rng = random.Random(3)
    for _ in range(100):
        k = rng.randint(1, 5)
        vectors = [bits_from_value(rng.randrange(1 << k), k) for _ in range(rng.randint(1, 4))]
        out = span(vectors)
        assert set(vectors) <= set(out)
        assert span(out) == out
        values = [bit_value(v) for v in out]
        assert values == sorted(values)


def test_elements_order():
    assert elements(2) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [bit_value(g) for g in elements(3)] == list(range(8))
