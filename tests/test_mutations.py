import json
import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest

from mu2sod.euler import gram_report
from mu2sod import mutations
from mu2sod.mutations import (
    ExceptionalSequence,
    Move,
    apply_script,
    determinant,
    gram_matrix,
    identity_sequence,
    is_semiorthogonal,
    is_unimodular,
    move_block,
    mutate_left,
    mutate_right,
    parse_script,
    sequence_from_dict,
)
from mu2sod.presets import p2_example
from mu2sod.sod import assemble, msodc_plan

B_UPPER = ((1, 2), (0, 1))
B_LOWER = ((1, 0), (3, 1))


def random_unipotent_form(rng, n):
    return tuple(
        tuple(1 if i == j else (rng.randint(-3, 3) if j > i else 0) for j in range(n))
        for i in range(n)
    )


def p2_sequence():
    spec = p2_example()
    report = assemble(spec)
    result = gram_report(spec, report)
    return identity_sequence(result.matrix, tuple(c.rank for c in report.components))


def test_pairing_and_semiorthogonality():
    seq = identity_sequence(B_UPPER)
    g = gram_matrix(seq)
    assert (g[0][1], g[1][0]) == (2, 0)
    assert is_semiorthogonal(seq)
    assert not is_semiorthogonal(identity_sequence(B_LOWER))  # pairing(1,0) = 3


def test_pairing_index_errors():
    seq = identity_sequence(B_UPPER)
    with pytest.raises(IndexError):
        mutate_left(seq, 0)
    with pytest.raises(IndexError):
        mutate_left(seq, 2)
    with pytest.raises(IndexError):
        mutate_right(seq, 1)


def test_p2_gram_sequence_is_semiorthogonal():
    assert is_semiorthogonal(p2_sequence())


def test_mutate_left_arithmetic():
    seq = mutate_left(identity_sequence(B_UPPER), 1)
    assert seq.vectors == ((-2, 1), (1, 0))


def test_orthogonal_pair_transposes():
    form = ((1, 0), (0, 1))
    seq = mutate_left(identity_sequence(form), 1)
    assert seq.vectors == ((0, 1), (1, 0))
    seq = mutate_right(identity_sequence(form), 0)
    assert seq.vectors == ((0, 1), (1, 0))


def test_left_then_right_restores_semiorthogonal_pair():
    seq = identity_sequence(B_UPPER)
    assert mutate_right(mutate_left(seq, 1), 0) == seq
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(2, 8)
        seq = identity_sequence(random_unipotent_form(rng, n))
        for _ in range(5):
            seq = mutate_left(seq, rng.randint(1, n - 1))
        i = rng.randint(1, n - 1)
        assert mutate_right(mutate_left(seq, i), i - 1) == seq
        i = rng.randint(0, n - 2)
        assert mutate_left(mutate_right(seq, i), i + 1) == seq


def test_non_semiorthogonal_round_trip_fails():
    # with pairing(2,1) = 3 below the diagonal, the braid moves are not inverse
    seq = identity_sequence(B_LOWER)
    assert mutate_right(mutate_left(seq, 1), 0) != seq
    assert mutate_right(mutate_left(seq, 1), 0).vectors == ((1, 0), (-3, 1))


def test_mutations_preserve_unimodularity_and_semiorthogonality():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 8)
        seq = identity_sequence(random_unipotent_form(rng, n))
        for _ in range(rng.randint(1, 20)):
            if rng.random() < 0.5:
                seq = mutate_left(seq, rng.randint(1, n - 1))
            else:
                seq = mutate_right(seq, rng.randint(0, n - 2))
            assert is_semiorthogonal(seq)
            assert is_unimodular(seq)


def test_determinant():
    assert determinant(((2, 0), (0, 3))) == 6
    assert determinant(((0, 1), (1, 0))) == -1
    assert determinant(((1, 2), (2, 4))) == 0


def test_p2_mutation_script_replay():
    seq = p2_sequence()
    script = [
        {"block": 4, "direction": "left"},
        {"block": 3, "direction": "left"},
        {"block": 5, "direction": "left"},
    ]
    final, records = apply_script(seq, script)
    assert is_semiorthogonal(final)
    assert is_unimodular(final)
    assert final.blocks == (3, 2, 1, 2, 1, 2, 1)
    # the three moves push skyscrapers through line blocks they pair with
    assert [r.orthogonal for r in records] == [False, False, False]


def test_block_swap_of_orthogonal_line_blocks():
    seq = p2_sequence()
    s1, s2, e2 = list(accumulate(seq.blocks, initial=0))[1:4]
    # blocks 1 and 2 are the V(x) and V(y) line blocks: orthogonal both ways
    old = gram_matrix(seq)
    assert not any(old[i][j] or old[j][i] for i in range(s1, s2) for j in range(s2, e2))
    swapped, record = move_block(seq, 2, "left")
    assert record.orthogonal
    # a fully orthogonal move is a pure transposition of the classes
    assert swapped.vectors[s1 : s1 + (e2 - s2)] == seq.vectors[s2:e2]
    assert swapped.vectors[s1 + (e2 - s2) : e2] == seq.vectors[s1:s2]
    assert is_semiorthogonal(swapped)
    # gram of the swapped sequence is the original conjugated by the swap
    perm = [0, 1, 2, 5, 6, 3, 4, 7, 8, 9, 10, 11]
    new = gram_matrix(swapped)
    assert all(
        new[i][j] == old[perm[i]][perm[j]] for i in range(12) for j in range(12)
    )


def test_empty_script_is_identity():
    seq = p2_sequence()
    final, records = apply_script(seq, [])
    assert final == seq
    assert records == []


def test_right_block_move_inverts_left():
    seq = p2_sequence()
    moved, _ = move_block(seq, 4, "left")
    back, _ = move_block(moved, 3, "right")
    assert back == seq


def test_apply_script_invalid_block():
    seq = p2_sequence()
    with pytest.raises(IndexError):
        apply_script(seq, [{"block": 0, "direction": "left"}])
    with pytest.raises(IndexError):
        apply_script(seq, [{"block": 6, "direction": "right"}])
    with pytest.raises(ValueError):
        apply_script(seq, [{"block": 1, "direction": "sideways"}])


def test_sequence_serialization_round_trip():
    seq = p2_sequence()
    doc = json.loads(json.dumps(seq.to_dict()))
    assert sequence_from_dict(doc) == seq


def test_parse_script():
    text = json.dumps([{"block": 4, "direction": "left"}])
    assert parse_script(text) == [{"block": 4, "direction": "left"}]
    with pytest.raises(ValueError):
        parse_script(json.dumps({"block": 1}))
    with pytest.raises(ValueError):
        parse_script(json.dumps([{"direction": "left"}]))


def test_sequence_validation():
    with pytest.raises(ValueError):
        ExceptionalSequence(B_UPPER, ((1, 0),), (1,))
    with pytest.raises(ValueError):
        ExceptionalSequence(B_UPPER, ((1, 0), (0, 1)), (1,))


def test_pn_full_regrouping_end_to_end():
    # regroup [P^3 / mu_2^3] by element and replay the whole plan
    from mu2sod.presets import pn_full

    spec = pn_full(3)
    report = assemble(spec)
    result = gram_report(spec, report)
    plan = msodc_plan(report, [list(r) for r in result.matrix])
    seq = identity_sequence(result.matrix, tuple(c.rank for c in report.components))
    final, records = apply_script(
        seq, [{"block": m.block, "direction": m.direction} for m in plan.moves]
    )
    assert is_semiorthogonal(final)
    assert is_unimodular(final)
    # the resulting block order groups pieces by their element
    elements_in_order = [report.components[i].element for i in plan.block_order]
    seen = []
    for g in elements_in_order:
        if not seen or seen[-1] != g:
            assert g not in seen
            seen.append(g)
    assert len(seen) == 8


def test_msodc_plan_replay_matches_records():
    spec = p2_example()
    report = assemble(spec)
    result = gram_report(spec, report)
    plan = msodc_plan(report, [list(r) for r in result.matrix])
    assert [m.orthogonal for m in plan.moves] == [False, False, False]
    seq = identity_sequence(result.matrix, tuple(c.rank for c in report.components))
    final, records = apply_script(
        seq, [{"block": m.block, "direction": m.direction} for m in plan.moves]
    )
    assert [r.orthogonal for r in records] == [m.orthogonal for m in plan.moves]
    assert is_semiorthogonal(final)


def fraction_determinant(vectors):
    """Oracle: Gaussian elimination over the rationals."""
    n = len(vectors)
    m = [[Fraction(x) for x in row] for row in vectors]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


def test_bareiss_determinant_matches_fraction_oracle():
    rng = random.Random(61)
    assert determinant(()) == fraction_determinant(()) == 1
    for trial in range(300):
        n = rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 1 and n > 1:
            m[rng.randrange(n)] = [0] * n  # singular: a zero row
        if trial % 3 == 2 and n > 1:
            for row in m[: rng.randint(1, n - 1)]:
                row[0] = 0  # zero leading pivots force row swaps
            if trial % 6 == 2:
                m[-1] = [a + b for a, b in zip(m[0], m[1 % n])]  # singular: dependent row
        assert determinant(m) == fraction_determinant(m), m


def random_block_script(rng, blocks, moves):
    script = []
    for _ in range(moves):
        nblocks = len(blocks)
        if rng.random() < 0.5:
            script.append({"block": rng.randint(1, nblocks - 1), "direction": "left"})
        else:
            script.append({"block": rng.randint(0, nblocks - 2), "direction": "right"})
    return script


def random_partition(rng, n):
    blocks, left = [], n
    while left:
        size = rng.randint(1, min(3, left))
        blocks.append(size)
        left -= size
    return tuple(blocks)


def replay_gram(replay):
    """A replay's G in position order, read through its slots."""
    return [[replay.gram[s][t] for t in replay.slots] for s in replay.slots]


def test_carried_gram_matches_recomputed_after_every_move():
    rng = random.Random(67)
    seen_flags = set()
    for _ in range(60):
        n = rng.randint(2, 9)
        blocks = random_partition(rng, n)
        if len(blocks) < 2:
            continue
        start = seq = identity_sequence(random_unipotent_form(rng, n), blocks)
        replay = mutations._Replay(start)
        script = random_block_script(rng, blocks, rng.randint(1, 12))
        records = []
        for move in script:
            block = move["block"]
            other = block - 1 if move["direction"] == "left" else block + 1
            bounds = list(accumulate(seq.blocks, initial=0))
            (ls, le), (rs, re) = sorted((bounds[b], bounds[b + 1]) for b in (block, other))
            g = gram_matrix(seq)  # both off-diagonal blocks before the move
            orthogonal = not any(g[i][j] or g[j][i] for i in range(ls, le) for j in range(rs, re))
            record = replay.move(block, move["direction"])
            assert record.orthogonal is orthogonal
            records.append(record)
            # a fresh move from the frozen sequence derives its own G
            seq, fresh = move_block(seq, block, move["direction"])
            assert fresh == record and replay.freeze() == seq
            assert replay_gram(replay) == gram_matrix(seq)
            assert is_semiorthogonal(seq)
        assert is_unimodular(seq)
        seen_flags.update(r.orthogonal for r in records)
        # a whole script on one working copy matches the move-by-move replay
        final, script_records = apply_script(start, script)
        assert final == seq
        assert script_records == records
    assert seen_flags == {False, True}


def test_carried_gram_after_elementary_mutations_and_reload():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 8)
        seq = identity_sequence(random_unipotent_form(rng, n))
        replay = mutations._Replay(seq)
        for _ in range(rng.randint(1, 15)):
            if rng.random() < 0.5:
                i = rng.randint(1, n - 1)
                seq = mutate_left(seq, i)
                replay.braid(i - 1, i - 1)
            else:
                i = rng.randint(0, n - 2)
                seq = mutate_right(seq, i)
                replay.braid(i, i + 1)
            assert replay.freeze() == seq
            assert replay_gram(replay) == gram_matrix(seq)
        # a sequence rebuilt from its JSON derives the same matrix
        reloaded = sequence_from_dict(json.loads(json.dumps(seq.to_dict())))
        assert reloaded == seq
        assert mutations._Replay(reloaded).gram == replay_gram(replay)


def test_sequence_from_dict_rejects_non_integers():
    good = identity_sequence(B_UPPER).to_dict()
    bad_docs = [
        [],
        {"form": good["form"], "vectors": good["vectors"]},
        {**good, "form": [[1, "2"], [0, 1]]},
        {**good, "form": [[1, 2.0], [0, 1]]},
        {**good, "form": [[True, 2], [0, 1]]},
        {**good, "form": "nope"},
        {**good, "vectors": [[1, 0], None]},
        {**good, "blocks": [1, True]},
        {**good, "blocks": "11"},
    ]
    for doc in bad_docs:
        with pytest.raises(ValueError):
            sequence_from_dict(doc)
    assert sequence_from_dict(good) == identity_sequence(B_UPPER)


def test_int_list_accepts_exactly_ints_and_int_subclasses():
    class Count(int):
        pass

    accepted = [[], [0], [1, -2, 2**70], [Count(3)], [Count(1), 2]]
    for value in accepted:
        assert mutations._int_list(value, "x") == tuple(value)
    rejected = [
        [True],
        [1, False],
        [1.0],
        [1, 2.5],
        ["1"],
        [1, None],
        [[1]],
        (1, 2),  # a list, not a tuple
        "12",
        None,
    ]
    for value in rejected:
        with pytest.raises(ValueError):
            mutations._int_list(value, "x")


def test_parse_script_rejects_bad_moves():
    for move in [
        {"block": "0", "direction": "left"},
        {"block": True, "direction": "left"},
        {"block": 1.0, "direction": "left"},
        {"block": 1, "direction": "up"},
        {"block": 1, "direction": ["left"]},
    ]:
        with pytest.raises(ValueError):
            parse_script(json.dumps([move]))


def dense_pairing_reference(form, vectors):
    """Reference: V B V^T as V B, then one dense dot product per entry."""
    vb = []
    for v in vectors:
        row = [0] * len(form)
        for x, form_row in zip(v, form):
            if x:
                row = [r + x * b for r, b in zip(row, form_row)]
        vb.append(row)
    return [[sum(map(mul, w, v)) for v in vectors] for w in vb]


def bareiss_reference(vectors):
    """Reference: Bareiss elimination rebuilding every row below the pivot."""
    m = [list(row) for row in vectors]
    n = len(m)
    sign, previous = 1, 1
    for col in range(n - 1):
        if not m[col][col]:
            pivot = next((r for r in range(col + 1, n) if m[r][col]), None)
            if pivot is None:
                return 0
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        p = top[col]
        for r in range(col + 1, n):
            row, factor = m[r], m[r][col]
            m[r] = [0] * (col + 1) + [
                (p * x - factor * y) // previous for x, y in zip(row[col + 1 :], top[col + 1 :])
            ]
        previous = p
    return sign * m[-1][-1] if n else 1


def random_matrix(rng, n, density=1.0, low=-4, high=4):
    return tuple(
        tuple(rng.randint(low, high) if rng.random() < density else 0 for _ in range(n))
        for _ in range(n)
    )


def assert_checks_match_references(form, vectors):
    seq = ExceptionalSequence(form, vectors, (len(form),))
    assert gram_matrix(seq) == dense_pairing_reference(form, vectors)
    det = determinant(vectors)
    assert det == bareiss_reference(vectors)
    return det


def test_final_checks_match_dense_references_on_random_matrices():
    rng = random.Random(73)
    dets = set()
    for trial in range(240):
        n = rng.randint(1, 12)
        density = (1.0, 0.3, 0.12)[trial % 3]  # dense, sparse, very sparse
        form = random_matrix(rng, n, density)
        vectors = random_matrix(rng, n, density)
        dets.add(assert_checks_match_references(form, vectors))
    assert 0 in dets and len(dets) > 20


def test_determinant_matches_reference_on_singular_and_small_determinants():
    rng = random.Random(79)
    seen = set()
    for trial in range(200):
        n = rng.randint(2, 10)
        # a random unimodular matrix: elementary row operations on I
        vectors = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            vectors[i] = [a + c * b for a, b in zip(vectors[i], vectors[j])]
        kind = trial % 4
        if kind == 1:
            i = rng.randrange(n)
            vectors[i] = [2 * x for x in vectors[i]]  # det +-2
        elif kind == 2:
            vectors[-1] = [a - b for a, b in zip(vectors[0], vectors[1])]  # singular: dependent row
        elif kind == 3:
            vectors[0] = [0] + vectors[0][1:]  # a zero leading pivot forces a row swap
        det = determinant(vectors)
        assert det == bareiss_reference(vectors) == fraction_determinant(vectors), vectors
        seen.add(det)
    assert {-2, 0, 2} <= seen and seen & {-1, 1}
    # one whose zero pivot forces a row swap and which is singular all the same
    swap_singular = ((0, 1, 2), (1, 0, 1), (2, 0, 2))
    assert determinant(swap_singular) == bareiss_reference(swap_singular) == 0


def test_final_checks_match_dense_references_on_plan_final_sequences():
    from mu2sod.presets import pn_full

    for n in (3, 4, 5):
        spec = pn_full(n)
        report = assemble(spec)
        result = gram_report(spec, report)
        plan = msodc_plan(report, [list(r) for r in result.matrix])
        seq = identity_sequence(result.matrix, tuple(c.rank for c in report.components))
        final, _ = apply_script(
            seq, [{"block": m.block, "direction": m.direction} for m in plan.moves]
        )
        assert final.vectors != seq.vectors
        assert assert_checks_match_references(final.form, final.vectors) in (1, -1)


def reference_orthogonal(g, left, right):
    """Whether two position ranges pair to zero both ways in G = ``g``."""
    (ls, le), (rs, re) = left, right
    return not any(any(g[i][rs:re]) for i in range(ls, le)) and not any(
        any(g[j][ls:le]) for j in range(rs, re)
    )


class ReferenceReplay:
    """Reference for ``mutations._Replay``: vectors and G kept in position
    order, so a braid swaps two entries in every row of G and a move reads
    its flag off contiguous ranges."""

    def __init__(self, seq):
        self.form = seq.form
        self.vectors = [list(v) for v in seq.vectors]
        self.gram = gram_matrix(seq)
        self.blocks = list(seq.blocks)

    def freeze(self):
        return ExceptionalSequence(self.form, tuple(map(tuple, self.vectors)), tuple(self.blocks))

    def braid(self, p, target):
        q = p + 1
        source = p + q - target
        vectors, gram = self.vectors, self.gram
        c = gram[p][q]
        for rows in (vectors, gram):
            rows[p], rows[q] = rows[q], rows[p]
        for row in gram:
            row[p], row[q] = row[q], row[p]
        if c:
            for rows in (vectors, gram):
                rows[target] = [x - c * y for x, y in zip(rows[target], rows[source])]
            for row in gram:
                row[target] -= c * row[source]

    def move(self, block, direction):
        blocks = self.blocks
        other = block - 1 if direction == "left" else block + 1
        first = min(block, other)
        start = sum(blocks[:first])
        middle = start + blocks[first]
        end = middle + blocks[first + 1]
        orthogonal = reference_orthogonal(self.gram, (start, middle), (middle, end))
        if direction == "left":
            for j in range(blocks[block]):
                for pos in range(middle + j - 1, start + j - 1, -1):
                    self.braid(pos, pos)
        else:
            for j in range(blocks[block]):
                for pos in range(middle - 1 - j, end - 1 - j):
                    self.braid(pos, pos + 1)
        blocks[block], blocks[other] = blocks[other], blocks[block]
        return Move(block, direction, orthogonal)


def assert_same_sequence(replay, reference):
    seq, expected = replay.freeze(), reference.freeze()
    assert seq.vectors == expected.vectors
    assert seq.blocks == expected.blocks
    assert replay_gram(replay) == reference.gram


def assert_replay_matches_reference(seq, script):
    replay, reference = mutations._Replay(seq), ReferenceReplay(seq)
    records = [replay.move(m["block"], m["direction"]) for m in script]
    expected_records = [reference.move(m["block"], m["direction"]) for m in script]
    assert_same_sequence(replay, reference)
    assert records == expected_records
    assert apply_script(seq, script) == (replay.freeze(), records)
    return records


def test_replay_matches_reference_on_random_forms():
    rng = random.Random(97)
    flags, diagonals = set(), set()
    for trial in range(150):
        n = rng.randint(2, 10)
        blocks = random_partition(rng, n)
        if len(blocks) < 2:
            continue
        # not unipotent: any diagonal, entries on both sides of it; short
        # scripts, since entries can square with every braid
        form = random_matrix(rng, n, (1.0, 0.4, 0.15)[trial % 3], -2, 2)
        diagonals.update(form[i][i] for i in range(n))
        seq = identity_sequence(form, blocks)
        script = random_block_script(rng, blocks, rng.randint(1, 6))
        flags.update(r.orthogonal for r in assert_replay_matches_reference(seq, script))
        # elementary mutations, one replay each
        for _ in range(4):
            i = rng.randint(1, n - 1)
            for mutate, position, target in ((mutate_left, i, i - 1), (mutate_right, i - 1, i)):
                replay, reference = mutations._Replay(seq), ReferenceReplay(seq)
                replay.braid(i - 1, target)
                reference.braid(i - 1, target)
                assert_same_sequence(replay, reference)
                assert mutate(seq, position) == replay.freeze()
    assert flags == {False, True}
    assert len(diagonals - {1}) > 2


def test_replay_matches_reference_on_plan_scripts():
    from mu2sod.presets import pn_full

    for n in (3, 4, 5):
        spec = pn_full(n)
        report = assemble(spec)
        result = gram_report(spec, report)
        seq = identity_sequence(result.matrix, tuple(c.rank for c in report.components))
        script = [{"block": m.block, "direction": m.direction} for m in msodc_plan(report).moves]
        records = assert_replay_matches_reference(seq, script)
        assert {r.orthogonal for r in records} == {False, True}
