import dataclasses
import random

import pytest

from mu2sod import verify
from mu2sod.groups import make_spec
from mu2sod.presets import p2_example, pn_full, quadric
from mu2sod.sod import assemble
from mu2sod.verify import (
    FAIL,
    PASS,
    SKIPPED,
    burnside_double_sum,
    check_burnside_total,
    check_etale,
    check_etale_sweep,
    check_gram_presets,
    check_projective_rank,
    check_quadric,
    check_random_rank_sweep,
    random_effective_projective_spec,
    run_battery,
)


def test_check_etale_examples():
    result = check_etale(3, 2)
    assert result.status == PASS
    assert result.actual["pieces"] == 4
    assert result.actual["dims"] == {3: 1, 2: 2, 1: 1}

    assert check_etale(5, 0).actual["pieces"] == 1
    result = check_etale(4, 4)
    assert result.status == PASS
    assert result.actual["dims"] == {4: 1, 3: 4, 2: 6, 1: 4, 0: 1}


def test_check_etale_sweep():
    assert check_etale_sweep().status == PASS


def test_check_projective_rank_presets():
    assert check_projective_rank(p2_example()).status == PASS
    assert check_projective_rank(p2_example()).expected == 12
    assert check_projective_rank(pn_full(1)).expected == 4
    assert check_projective_rank(pn_full(3)).expected == 32
    assert check_projective_rank(pn_full(3)).status == PASS


def test_check_projective_rank_skips():
    ineffective = make_spec("projective", 1, [[1, 1]])
    assert check_projective_rank(ineffective).status == SKIPPED
    assert check_projective_rank(quadric(2)).status == SKIPPED


def test_check_burnside_total_p2():
    result = check_burnside_total(p2_example())
    assert result.status == PASS
    assert result.expected == result.actual == 12
    assert result.context["double_sum"] == 48


def test_check_burnside_trivial_group():
    # chi of the whole space, e.g. chi(P^3) = 4
    result = check_burnside_total(make_spec("projective", 3, []))
    assert result.status == PASS
    assert result.actual == 4
    result = check_burnside_total(make_spec("affine", 5, []))
    assert result.actual == 1


def test_quadric_fixture_17_confirmed_by_oracle():
    spec = quadric(2)
    double = burnside_double_sum(spec)
    assert double % 8 == 0
    oracle_value = double // 8
    # hand computation: 3 (quadric surface) + 3*2 (conics) + 6*1 (merged
    # pairs) + 2 (twisted conic) = 17, admitted only because the oracle
    # reproduces it
    assert oracle_value == 17
    assert assemble(spec).total_rank == oracle_value


def test_check_quadric_presets():
    for q_dim in range(1, 6):
        result = check_quadric(q_dim)
        assert result.status == PASS, result
        assert result.actual["unclassified"] == []
    assert check_quadric(1).actual["count"] == 5
    assert check_quadric(2).actual["count"] == 17


def test_check_quadric_counts_match_burnside():
    for q_dim in range(1, 4):
        spec = quadric(q_dim)
        order = len(spec.group)
        assert assemble(spec).total_rank == burnside_double_sum(spec) // order


def test_check_gram_presets():
    result = check_gram_presets()
    assert result.status == PASS, result.actual
    # no preset needed a character normalization
    assert result.context["normalized"] == {}
    # equal-dimension blocks pairwise K-vanish on every preset (recorded
    # for the open question on equal-dimension interleaving)
    assert all(result.context["equal_dim_blocks_orthogonal"].values())
    assert result.context["line_point_one_way"]


# Forged Grams on p2-example (blocks 3, 2, 2, 2, 1, 1, 1: block 0 is the
# plane, blocks 1-3 the lines at rows 3-8, blocks 4-6 the points at rows
# 9-11).  p2-full is the same spec, so it sees the same forgery, but only
# p2-example is held to the line/point rules.
FORGED_GRAMS = {
    "line-line": ({(3, 5): 7}, True, ["p2-example: line blocks 1,2 not orthogonal"]),
    "point-point": ({(9, 10): 7}, True, ["p2-example: point blocks 4,5 not orthogonal"]),
    "diagonal": (
        {(3, 4): 5},
        True,
        [
            f"{name}: diagonal block [[1, 5], [0, 1]] != binomial [[1, 2], [0, 1]]"
            for name in ("p2-example", "p2-full")
        ],
    ),
    "no-one-way": (
        {(i, j): 0 for i in range(3, 9) for j in range(9, 12)},
        True,
        ["p2-example: no line-point block nonzero in exactly one direction"],
    ),
    "not-triangular": (
        {(5, 3): 1},
        False,
        [f"{name}: Gram is not unipotent upper triangular" for name in ("p2-example", "p2-full")],
    ),
}


@pytest.mark.parametrize("case", sorted(FORGED_GRAMS))
def test_check_gram_presets_failures(monkeypatch, case):
    entries, triangular, expected = FORGED_GRAMS[case]
    real = verify.gram_report

    def forged(spec, report):
        result = real(spec, report)
        if spec != p2_example():
            return result
        matrix = [list(row) for row in result.matrix]
        for (i, j), value in entries.items():
            matrix[i][j] = value
        return dataclasses.replace(result, matrix=tuple(map(tuple, matrix)), triangular=triangular)

    monkeypatch.setattr(verify, "gram_report", forged)
    result = check_gram_presets()
    assert result.status == FAIL
    assert result.actual == expected


def test_check_gram_presets_builds_each_spec_once(monkeypatch):
    seen = []
    real = verify.gram_report

    def counting(spec, report):
        seen.append(spec)
        return real(spec, report)

    monkeypatch.setattr(verify, "gram_report", counting)
    result = check_gram_presets()
    assert result.status == PASS
    # five names, four specs: p2-example and p2-full are equal
    assert len(seen) == len(set(seen)) == 4
    assert set(result.context["equal_dim_blocks_orthogonal"]) == {
        "p1", "p2-example", "p2-full", "p3-full", "p4-full"
    }


def test_random_spec_generator_is_effective():
    rng = random.Random(1)
    for _ in range(30):
        spec = random_effective_projective_spec(rng)
        assert spec.kind == "projective"
        assert spec.dim <= 4 and spec.rank <= 4


def test_random_rank_sweep_small():
    assert check_random_rank_sweep(count=25, seed=5).status == PASS


def reference_random_rank_sweep(count=200, seed=20240913):
    """The sweep that ``check_random_rank_sweep`` replaced: every draw is
    assembled and checked, repeated specs included."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        spec = random_effective_projective_spec(rng)
        report = verify.assemble(spec)
        rank = check_projective_rank(spec, report)
        burnside = check_burnside_total(spec, report)
        if rank.status != PASS or burnside.status != PASS:
            failures.append((i, spec.to_dict(), rank.status, burnside.status))
    return verify.CheckResult(
        f"random-rank-sweep(count={count})",
        PASS if not failures else FAIL,
        expected=[],
        actual=failures,
        context={"seed": seed},
    )


@pytest.mark.parametrize("count, seed", [(200, 20240913), (60, 5)])
def test_random_rank_sweep_matches_reference(count, seed):
    assert check_random_rank_sweep(count, seed) == reference_random_rank_sweep(count, seed)


def test_random_rank_sweep_lists_every_draw_of_a_failing_spec(monkeypatch):
    # one spec drawn more than once fails: each of its draws is a failure
    rng = random.Random(20240913)
    draws = [random_effective_projective_spec(rng) for _ in range(200)]
    bad = max(draws, key=draws.count)
    indices = [i for i, spec in enumerate(draws) if spec == bad]
    assert len(indices) > 1
    real = verify.assemble

    def assemble_failing(spec):
        report = real(spec)
        return dataclasses.replace(report, total_rank=report.total_rank + 1) if spec == bad else report

    monkeypatch.setattr(verify, "assemble", assemble_failing)
    result = check_random_rank_sweep()
    assert result.status == FAIL
    assert [failure[0] for failure in result.actual] == indices
    assert result == reference_random_rank_sweep()


def test_run_battery_all_pass():
    results = run_battery()
    assert results, "battery must not be empty"
    failures = [r.name for r in results if r.status == FAIL]
    assert failures == []
    lines = [r.line() for r in results]
    assert all(l.startswith(("PASS", "SKIP")) for l in lines)
