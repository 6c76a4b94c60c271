"""Acceptance suite: one test per criterion, exact values, timed budgets.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
the failure report); a criterion fails loudly rather than loosening its
tolerance.
"""

import random
import time

from mu2sod import mutations
from mu2sod.euler import gram_report
from mu2sod.presets import etale, p2_example, quadric
from mu2sod.sod import assemble, msodc_plan, piece_label
from mu2sod.verify import (
    PASS,
    burnside_double_sum,
    check_etale,
    check_gram_presets,
    random_effective_projective_spec,
)


def _report(criterion: str, failures: list, elapsed: float, budget: float) -> None:
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"acceptance {criterion}: {status} [{elapsed:.2f}s, budget {budget}s]")
    assert not failures, failures
    assert elapsed < budget, f"{criterion} took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_1_etale_structure():
    start = time.time()
    failures = []
    for n in range(7):
        for k in range(n + 1):
            report = assemble(etale(n, k))
            if len(report.components) != 1 << k or report.total_rank != 1 << k:
                failures.append((n, k, "count or rank"))
            expected_dims = sorted(n - g.bit_count() for g in range(1 << k))
            if sorted(c.piece.dim for c in report.components) != expected_dims:
                failures.append((n, k, "dimension multiset"))
            if check_etale(n, k).status != PASS:
                failures.append((n, k, "verify check"))
    _report("criterion-1 (etale-local structure)", failures, time.time() - start, 1.0)


def test_criterion_2_p2_example():
    start = time.time()
    failures = []
    report = assemble(p2_example())
    by_dim = {d: sum(1 for c in report.components if c.piece.dim == d) for d in (2, 1, 0)}
    if len(report.components) != 7 or by_dim != {2: 1, 1: 3, 0: 3}:
        failures.append(f"components {by_dim}")
    if report.total_rank != 12:
        failures.append(f"total rank {report.total_rank}")
    plan = msodc_plan(report)
    grouped = [piece_label(report.components[i]) for i in plan.block_order]
    target = ["P2[0,1,2]", "P1[1,2]", "pt[0]", "P1[0,2]", "pt[1]", "P1[0,1]", "pt[2]"]
    if grouped != target:
        failures.append(f"grouped order {grouped}")
    if len(plan.moves) != 3 or any(m.direction != "left" for m in plan.moves):
        failures.append(f"plan {plan.moves}")
    _report("criterion-2 (P2/mu2^2 example)", failures, time.time() - start, 1.0)


def test_criterion_3_rank_oracles():
    start = time.time()
    rng = random.Random(20240913)
    failures = []
    for i in range(200):
        spec = random_effective_projective_spec(rng, n_max=4, k_max=4)
        order = 1 << spec.rank
        closed_form = (spec.dim + 1) * order
        report = assemble(spec)  # raises if a rank disagrees with its coarse P^m
        double = burnside_double_sum(spec)
        if double % order:
            failures.append((i, "non-integral double sum"))
            continue
        if not report.total_rank == closed_form == double // order:
            failures.append((i, spec.to_dict(), report.total_rank, double // order))
    _report("criterion-3 (rank oracle agreement, 200 specs)", failures, time.time() - start, 30.0)


def test_criterion_4_gram_shadow():
    start = time.time()
    failures = []
    if check_gram_presets().status != PASS:
        failures.append(check_gram_presets().actual)

    # hand Koszul fixtures on the P2 example, object order:
    # 0-2 plane, 3-4 V(x), 5-6 V(y), 7-8 V(z), 9 p, 10 q, 11 r
    spec = p2_example()
    report = assemble(spec)
    result = gram_report(spec, report)
    m = [list(r) for r in result.matrix]
    if not result.triangular:
        failures.append("P2 Gram not triangular")
    if [row[:3] for row in m[:3]] != [[1, 3, 6], [0, 1, 3], [0, 0, 1]]:
        failures.append(f"plane block {[row[:3] for row in m[:3]]}")
    lines = {3: (1, 2), 5: (0, 2), 7: (0, 1)}  # first generator position -> support
    points = {9: 0, 10: 1, 11: 2}
    for lpos, support in lines.items():
        for ppos, coord in points.items():
            expected = 1 if coord in support else 0
            for offset in (0, 1):  # both generators of the line block
                if m[lpos + offset][ppos] != expected:
                    failures.append(f"chi(line@{lpos + offset}, point@{ppos}) = {m[lpos + offset][ppos]} != {expected}")
                if m[ppos][lpos + offset] != 0:
                    failures.append(f"chi(point@{ppos}, line@{lpos + offset}) != 0")
    # line-line and point-point cross blocks vanish in both directions
    for a in lines:
        for b in lines:
            if a != b and any(m[a + i][b + j] for i in (0, 1) for j in (0, 1)):
                failures.append(f"line blocks {a},{b} not orthogonal")
    for a in points:
        for b in points:
            if a != b and m[a][b] != 0:
                failures.append(f"point blocks {a},{b} not orthogonal")
    _report("criterion-4 (Gram / fully-faithfulness shadow)", failures, time.time() - start, 5.0)


def test_criterion_5_mutation_replay():
    start = time.time()
    failures = []
    spec = p2_example()
    report = assemble(spec)
    result = gram_report(spec, report)
    seq = mutations.identity_sequence(result.matrix, tuple(c.rank for c in report.components))
    script = [
        {"block": 4, "direction": "left"},
        {"block": 3, "direction": "left"},
        {"block": 5, "direction": "left"},
    ]
    final, records = mutations.apply_script(seq, script)
    if not mutations.is_semiorthogonal(final):
        failures.append("semiorthogonality lost")
    if not mutations.is_unimodular(final):
        failures.append("unimodularity lost")
    if final.blocks != (3, 2, 1, 2, 1, 2, 1):
        failures.append(f"blocks {final.blocks}")
    # element-grouped block order matches the plan
    plan = msodc_plan(report, [list(r) for r in result.matrix])
    if [(mv.block, mv.direction) for mv in plan.moves] != [(4, "left"), (3, "left"), (5, "left")]:
        failures.append(f"plan moves {plan.moves}")
    # an orthogonal move (swapping two line blocks) is a pure transposition
    swapped, record = mutations.move_block(seq, 2, "left")
    if not record.orthogonal:
        failures.append("line-block swap not detected as orthogonal")
    if sorted(swapped.vectors) != sorted(seq.vectors):
        failures.append("orthogonal move changed some class")
    _report("criterion-5 (mutation replay)", failures, time.time() - start, 1.0)


def test_criterion_6_quadric_pipeline():
    start = time.time()
    failures = []
    for q_dim in range(1, 6):
        spec = quadric(q_dim)
        report = assemble(spec)
        bad = [c.coarse for c in report.components if c.coarse not in ("projective", "point")]
        if bad:
            failures.append((q_dim, f"unclassified {bad}"))
        order = 1 << spec.rank
        double = burnside_double_sum(spec)
        if double % order or report.total_rank != double // order:
            failures.append((q_dim, report.total_rank, double / order))
        if q_dim == 2 and report.total_rank != 17:
            failures.append((q_dim, f"fixture 17 != {report.total_rank}"))
    _report("criterion-6 (quadric pipeline)", failures, time.time() - start, 5.0)


def test_criterion_7_mutation_algebra():
    start = time.time()
    rng = random.Random(77)
    failures = []
    for trial in range(500):
        n = rng.randint(2, 8)
        form = tuple(
            tuple(1 if i == j else (rng.randint(-3, 3) if j > i else 0) for j in range(n))
            for i in range(n)
        )
        seq = mutations.identity_sequence(form)
        # left-then-right on a semiorthogonal adjacent pair is the identity
        i = rng.randint(1, n - 1)
        if mutations.mutate_right(mutations.mutate_left(seq, i), i - 1) != seq:
            failures.append((trial, "round trip"))
        check_each = trial % 10 == 0
        for _ in range(rng.randint(1, 20)):
            if rng.random() < 0.5:
                seq = mutations.mutate_left(seq, rng.randint(1, n - 1))
            else:
                seq = mutations.mutate_right(seq, rng.randint(0, n - 2))
            if check_each and not mutations.is_semiorthogonal(seq):
                failures.append((trial, "semiorthogonality broken mid-sequence"))
                break
        if not mutations.is_semiorthogonal(seq):
            failures.append((trial, "semiorthogonality broken"))
        if not mutations.is_unimodular(seq):
            failures.append((trial, "unimodularity broken"))
    _report("criterion-7 (mutation algebra, 500 forms)", failures, time.time() - start, 10.0)
