import dataclasses
import json
import random

import pytest

from mu2sod.euler import EulerError, gram_report
from mu2sod.groups import dot, make_spec
from mu2sod.mutations import apply_script, identity_sequence
from mu2sod.inertia import components
from mu2sod.presets import etale, p2_example, pn_full, quadric
from mu2sod.sod import assemble, msodc_plan, piece_label, report_to_dict
from mu2sod.verify import random_effective_projective_spec
from test_oracle_sweep import random_spec


def test_p2_order_and_rank_ledger():
    report = assemble(p2_example())
    assert [(c.element, c.piece.support) for c in report.components] == [
        (0b00, (0, 1, 2)),  # the plane
        (0b01, (1, 2)),  # V(x)
        (0b10, (0, 2)),  # V(y)
        (0b11, (0, 1)),  # V(z)
        (0b01, (0,)),  # p = [1:0:0]
        (0b10, (1,)),  # q
        (0b11, (2,)),  # r
    ]
    assert report.total_rank == 12
    assert report.effective
    assert report.smoothness_warnings == ()


def test_trivial_group_single_piece():
    report = assemble(make_spec("projective", 2, []))
    assert len(report.components) == 1
    assert report.total_rank == 3


def test_etale_preset_counts():
    from math import comb

    for n, k in [(3, 2), (4, 4), (5, 0)]:
        report = assemble(etale(n, k))
        assert len(report.components) == 1 << k
        assert report.total_rank == 1 << k
        for j in range(k + 1):
            assert sum(1 for c in report.components if c.piece.dim == n - j) == comb(k, j)


def test_order_weakly_decreasing_in_dim():
    rng = random.Random(5)
    specs = [p2_example(), pn_full(3), quadric(2), etale(4, 3)]
    specs += [random_effective_projective_spec(rng) for _ in range(20)]
    for spec in specs:
        report = assemble(spec)
        dims = [c.piece.dim for c in report.components]
        assert dims == sorted(dims, reverse=True)


def test_total_rank_independent_of_tie_break():
    rng = random.Random(9)
    for _ in range(20):
        spec = random_effective_projective_spec(rng)
        report = assemble(spec)
        comps = list(report.components)
        rng.shuffle(comps)
        assert sum(c.rank for c in comps) == report.total_rank


def test_grouping_lists_every_position_once():
    for spec in [p2_example(), quadric(2), etale(4, 2)]:
        report = assemble(spec)
        positions = sorted(p for _, ps in report.grouping for p in ps)
        assert positions == list(range(len(report.components)))


def test_kernel_flagged():
    report = assemble(make_spec("projective", 1, [[1, 1]]))
    assert not report.effective
    assert len(report.kernel) == 2


def test_msodc_plan_p2():
    report = assemble(p2_example())
    plan = msodc_plan(report)
    assert [(m.block, m.direction) for m in plan.moves] == [
        (4, "left"),
        (3, "left"),
        (5, "left"),
    ]
    assert all(m.orthogonal is None for m in plan.moves)  # no Gram supplied
    labels = [piece_label(report.components[i]) for i in plan.block_order]
    assert labels == [
        "P2[0,1,2]",
        "P1[1,2]",
        "pt[0]",
        "P1[0,2]",
        "pt[1]",
        "P1[0,1]",
        "pt[2]",
    ]


def test_msodc_plan_idempotent():
    report = assemble(p2_example())
    plan = msodc_plan(report)
    comps = tuple(report.components[i] for i in plan.block_order)
    grouping: dict[int, list[int]] = {}
    for pos, comp in enumerate(comps):
        grouping.setdefault(comp.element, []).append(pos)
    regrouped = dataclasses.replace(
        report,
        components=comps,
        grouping=tuple((g, tuple(ps)) for g, ps in grouping.items()),
    )
    assert msodc_plan(regrouped).moves == ()


def test_msodc_plan_trivial_cases():
    # one piece per element: already grouped
    assert msodc_plan(assemble(etale(3, 2))).moves == ()
    # single nontrivial element
    assert msodc_plan(assemble(pn_full(1))).moves == ()


def test_msodc_plan_quadric_needs_moves():
    # for q_dim = 3 an element with weight 2 owns a conic and a point
    # pair of different dimensions, so regrouping requires real moves;
    # no Gram exists for quadrics, so orthogonality stays undecided
    report = assemble(quadric(3))
    plan = msodc_plan(report)
    assert plan.moves
    assert all(m.orthogonal is None and m.direction == "left" for m in plan.moves)
    order = [report.components[i].element for i in plan.block_order]
    seen = []
    for g in order:
        if not seen or seen[-1] != g:
            assert g not in seen
            seen.append(g)
    assert len(seen) == 16


def test_grouped_block_order_contiguous():
    for spec in [p2_example(), quadric(2), pn_full(3)]:
        report = assemble(spec)
        order = msodc_plan(report).block_order
        seen = []
        for i in order:
            g = report.components[i].element
            if g not in seen:
                seen.append(g)
            else:
                assert seen[-1] == g  # same-element pieces stay contiguous


def replayed_plan(report, gram):
    """The plan as it was computed before its flags were projections: the
    block moves of the target order, replayed on the identity sequence of
    ``gram``, one record per move."""
    target = [pos for _, positions in report.grouping for pos in positions]
    order = list(range(len(report.components)))
    steps = []
    for t in range(len(target)):
        p = order.index(target[t])
        while p > t:
            steps.append(p)
            order.insert(p - 1, order.pop(p))
            p -= 1
    seq = identity_sequence(gram, tuple(c.rank for c in report.components))
    _, records = apply_script(seq, [{"block": p, "direction": "left"} for p in steps])
    return records, tuple(order)


def passed_pairs(report):
    """(moving block, passed block) of each plan move, original indices."""
    order, pairs = list(range(len(report.components))), []
    for move in msodc_plan(report).moves:
        p = move.block
        pairs.append((order[p], order[p - 1]))
        order[p - 1], order[p] = order[p], order[p - 1]
    return pairs


def random_unipotent_reports(rng, count):
    """Seeded classified projective specs whose canonical Gram is
    unipotent, with their reports and Grams."""
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 3)
        rows = [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(rng.randint(1, n + 1))]
        spec = make_spec("projective", n, rows)
        report = assemble(spec)
        try:
            result = gram_report(spec, report)
        except EulerError:
            continue
        if result.triangular:
            cases.append((report, result.matrix))
    return cases


def test_msodc_plan_flags_match_replay():
    specs = [p2_example()] + [pn_full(n) for n in range(1, 7)]
    cases = [(assemble(spec), gram_report(spec, assemble(spec)).matrix) for spec in specs]
    cases += random_unipotent_reports(random.Random(83), 320)
    moves = orthogonal = non_effective = 0
    for report, gram in cases:
        plan = msodc_plan(report, gram)
        records, order = replayed_plan(report, gram)
        assert plan.moves == tuple(records), report.spec.to_dict()
        assert plan.block_order == order
        moves += len(records)
        orthogonal += sum(m.orthogonal for m in records)
        non_effective += not report.effective
    # both flags, and specs whose Gram needed character twists
    assert 0 < orthogonal < moves and non_effective


def test_msodc_plan_flags_match_replay_on_random_unipotent_grams():
    # random forms on real block structures: here a moving block's current
    # pairings differ from its original ones, so the projection decides
    rng = random.Random(89)
    reports = [assemble(spec) for spec in (p2_example(), pn_full(3), pn_full(4), quadric(2), quadric(3))]
    reports += [report for report, _ in random_unipotent_reports(rng, 40)]
    projected = 0
    for report in reports:
        n = report.total_rank
        starts = [sum(c.rank for c in report.components[:i]) for i in range(len(report.components) + 1)]
        pairs = passed_pairs(report)
        for density in (0.05, 0.2, 0.5):
            gram = [
                [int(i == j) or (j > i and rng.random() < density) * rng.choice((-2, -1, 1, 2)) for j in range(n)]
                for i in range(n)
            ]
            records, order = replayed_plan(report, gram)
            plan = msodc_plan(report, gram)
            assert plan.moves == tuple(records) and plan.block_order == order
            for (moving, passed), record in zip(pairs, records):
                original = not any(
                    gram[a][e] for a in range(starts[passed], starts[passed + 1]) for e in range(starts[moving], starts[moving + 1])
                )
                projected += original != record.orthogonal
    assert projected


def test_msodc_plan_rejects_a_gram_that_is_not_unipotent():
    report = assemble(p2_example())
    gram = [list(row) for row in gram_report(p2_example(), report).matrix]
    assert msodc_plan(report, gram).moves
    below = [row[:] for row in gram]
    below[5][2] = 1
    diagonal = [row[:] for row in gram]
    diagonal[3][3] = 2
    short = [row[:-1] for row in gram]
    for broken in (below, diagonal, short):
        with pytest.raises(ValueError, match="unipotent"):
            msodc_plan(report, broken)
    with pytest.raises(ValueError, match="rows"):
        msodc_plan(report, gram[:-1])


def test_report_round_trip():
    # the document carries the spec and every int element as its
    # little-endian bit list, so both read back exactly
    for spec in [p2_example(), quadric(2), etale(3, 2), pn_full(3)]:
        report = assemble(spec)
        doc = json.loads(json.dumps(report_to_dict(report), sort_keys=True))
        assert make_spec(doc["space"]["kind"], doc["space"]["dim"], doc["action"]) == spec
        elements = [sum(b << i for i, b in enumerate(e["element"])) for e in doc["components"]]
        assert elements == [c.element for c in report.components]
        assert all(len(e["element"]) == spec.rank for e in doc["components"])
        assert [
            (sum(b << i for i, b in enumerate(e["element"])), tuple(e["positions"]))
            for e in doc["grouping"]
        ] == list(report.grouping)
        assert doc["flags"]["kernel"] == [[0] * spec.rank]


def test_report_dict_field_names():
    doc = report_to_dict(assemble(p2_example()))
    assert set(doc) >= {"space", "group_rank", "action", "components", "order", "total_rank", "grouping", "flags"}
    entry = doc["components"][0]
    assert set(entry) >= {"element", "support", "geometry", "dim", "coarse_type", "rank"}
    assert doc["total_rank"] == 12


def reference_sector_sign(spec, comp):
    """0 for the + sector of the component's element, 1 for the - sector."""
    if not comp.piece.support:
        return 0
    return dot(spec.characters[comp.piece.support[0]], comp.element)


def reference_order_key(spec, comp):
    """The documented order, every tie-break spelled out."""
    return (
        -comp.piece.dim,
        comp.element.bit_count(),
        comp.element,
        reference_sector_sign(spec, comp),
        comp.split_index or 0,
    )


def test_order_matches_reference_key():
    specs = [p2_example(), etale(4, 3)]
    specs += [pn_full(n) for n in range(1, 7)] + [quadric(q) for q in range(1, 7)]
    rng = random.Random(13)
    kinds = ("affine", "projective", "fermat_quadric")
    specs += [random_spec(rng, kinds[i % 3], rng.randint(0, 5), max_dim=5) for i in range(360)]
    split_pairs = same_dim_sectors = non_effective = 0
    for spec in specs:
        comps = components(spec)
        expected = sorted(comps, key=lambda c: reference_order_key(spec, c))
        assert list(assemble(spec).components) == expected, spec
        split_pairs += sum(c.split_index == 2 for c in comps)
        dims = [(c.element, c.piece.dim) for c in comps if c.split_index is None]
        same_dim_sectors += len(dims) - len(set(dims))
        non_effective += not assemble(spec).effective
    # the sweep reaches every tie the sector and split rules break
    assert split_pairs and same_dim_sectors and non_effective
