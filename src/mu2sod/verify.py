"""Independent oracles for the countable consequences of the theory.

Each check recomputes an expected value along a code path disjoint from
the one that produced the actual value:

* component counts and dimensions on the affine presets come from
  binomial enumeration of multi-indices;
* projective total ranks come from the closed form (n+1) * 2^k for
  effective actions;
* the Burnside double sum (1/|G|) sum_{g,h} chi_c(X^g intersect X^h)
  splits the whole space by the sign masks of (g, h) at once,
  bypassing fixed pieces and component splitting; it visits each
  unordered pair of distinct masks once (2^(k-1)(2^k + 1) pairs at
  most) and looks each sector's chi_c up by its size;
* Gram checks compare engine pairings against binomial matrices.

Hand-computed fixture values (such as the quadric-surface count 17) are
asserted in the test suite only after these oracles reproduce them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb

from .euler import gram_report
from .groups import ActionSpec, bit_list, dot, is_effective, make_spec
from .presets import etale, p2_example, pn_full, quadric
from .sod import SodReport, assemble

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class CheckResult:
    name: str
    status: str
    expected: object = None
    actual: object = None
    context: dict = field(default_factory=dict)

    def line(self) -> str:
        extra = f" ({self.context['reason']})" if "reason" in self.context else ""
        if self.status == FAIL:
            extra = f" expected={self.expected!r} actual={self.actual!r}"
        return f"{self.status.upper():7s} {self.name}{extra}"


def _result(name: str, expected, actual, **context) -> CheckResult:
    status = PASS if expected == actual else FAIL
    return CheckResult(name, status, expected, actual, context)


def check_etale(n: int, k: int) -> CheckResult:
    """2^k pieces on [A^n / mu_2^k], C(k, j) of dimension n - j, ranks 1."""
    report = assemble(etale(n, k))
    dims: dict[int, int] = {}
    for comp in report.components:
        dims[comp.piece.dim] = dims.get(comp.piece.dim, 0) + 1
    actual = {
        "pieces": len(report.components),
        "ranks": sorted({c.rank for c in report.components}),
        "dims": dims,
        "total_rank": report.total_rank,
    }
    expected = {
        "pieces": 1 << k,
        "ranks": [1],
        "dims": {n - j: comb(k, j) for j in range(k + 1)},
        "total_rank": 1 << k,
    }
    return _result(f"etale(n={n}, k={k})", expected, actual)


def check_projective_rank(spec: ActionSpec, report: SodReport | None = None) -> CheckResult:
    """Total rank of an effective projective action is (n+1) * 2^k."""
    name = f"projective-rank(n={spec.dim}, k={spec.rank})"
    if spec.kind != "projective":
        return CheckResult(name, SKIPPED, context={"reason": "not a projective spec"})
    if report is None:
        report = assemble(spec)
    if not report.effective:
        return CheckResult(name, SKIPPED, context={"reason": "nontrivial projective kernel"})
    return _result(name, (spec.dim + 1) << spec.rank, report.total_rank)


def _sector_chi(kind: str, size: int, all_plus: bool) -> int:
    """chi_c of one sign sector's share of a fixed locus: the affine space
    of the all-plus sector on A^n, P^(size-1) on P^n, and on a Fermat
    quadric the sub-quadric on the sector (no point for size 1)."""
    if kind == "affine":
        return int(all_plus)
    return size if kind == "projective" else size - (size & 1)


def burnside_double_sum(spec: ActionSpec) -> int:
    """sum over ordered pairs (g, h) of chi_c(X^<g,h>), no components involved:
    each element is read once as its sign mask (bit i set when it negates
    coordinate i), and a pair of masks splits the coordinates into four sectors.
    The summand is symmetric in (g, h), so each unordered pair of distinct
    masks is visited once and counted twice; a sector's chi_c is looked up
    by its size in tables built from ``_sector_chi``."""
    c = spec.num_coords
    plus = [_sector_chi(spec.kind, size, True) for size in range(c + 1)]
    other = [_sector_chi(spec.kind, size, False) for size in range(c + 1)]
    counts = Counter(
        sum(dot(chi, g) << i for i, chi in enumerate(spec.characters)) for g in spec.group
    )
    masks = [(a, a.bit_count(), m) for a, m in counts.items()]
    diagonal = off_diagonal = 0
    for j, (a, wa, m) in enumerate(masks):
        # (a, a): all-plus off a, all-minus on a, and two empty sectors
        diagonal += m * m * (plus[c - wa] + other[wa] + 2 * other[0])
        row = 0
        for b, wb, n in masks[j + 1 :]:
            # sector sizes by inclusion-exclusion: none, a only, b only, both
            both = (a & b).bit_count()
            row += n * (plus[c - wa - wb + both] + other[wa - both] + other[wb - both] + other[both])
        off_diagonal += m * row
    return diagonal + 2 * off_diagonal


def check_burnside_total(spec: ActionSpec, report: SodReport | None = None) -> CheckResult:
    """Component ranks must sum to the Burnside double sum over |G|."""
    name = f"burnside-total({spec.kind}, dim={spec.dim}, k={spec.rank})"
    if report is None:
        report = assemble(spec)
    order = len(spec.group)
    double = burnside_double_sum(spec)
    if double % order:
        return CheckResult(
            name,
            FAIL,
            expected="double sum divisible by |G|",
            actual=f"{double} mod {order} = {double % order}",
        )
    return _result(name, double // order, report.total_rank, double_sum=double)


def check_quadric(q_dim: int) -> CheckResult:
    """Every quadric-preset component is a projective space or a point,
    and the exceptional-object count matches the Burnside oracle."""
    spec = quadric(q_dim)
    report = assemble(spec)
    burnside = check_burnside_total(spec, report)
    oracle_total = burnside.expected if burnside.status == PASS else None
    bad_types = sorted(
        {c.coarse for c in report.components if c.coarse not in ("projective", "point")}
    )
    actual = {"unclassified": bad_types, "count": report.total_rank}
    expected = {"unclassified": [], "count": oracle_total}
    return _result(
        f"quadric(q_dim={q_dim})",
        expected,
        actual,
        components=len(report.components),
        exceptional_objects=report.total_rank,
    )


def check_gram_presets() -> CheckResult:
    """Gram shape on the bundled projective presets.

    (a) every diagonal block is the binomial matrix C(m + t' - t, m);
    (b) the full matrix is unipotent upper triangular (after character
        normalization if needed, with the chosen twists reported);
    (c) on the P^2 example, line blocks and point blocks are mutually
        orthogonal in both directions and some line-point block is
        nonzero in exactly one direction.
    """
    presets = [
        ("p1", pn_full(1)),
        ("p2-example", p2_example()),
        ("p2-full", pn_full(2)),
        ("p3-full", pn_full(3)),
        ("p4-full", pn_full(4)),
    ]
    failures: list[str] = []
    context: dict = {"normalized": {}, "equal_dim_blocks_orthogonal": {}}
    grams: dict[ActionSpec, tuple] = {}  # p2-example and p2-full are one spec
    for name, spec in presets:
        if spec not in grams:
            report = assemble(spec)
            grams[spec] = report, gram_report(spec, report)
        report, result = grams[spec]
        if result.normalized:
            context["normalized"][name] = [bit_list(t, spec.rank) for t in result.twists]
        if not result.triangular:
            failures.append(f"{name}: Gram is not unipotent upper triangular")
            continue
        matrix = result.matrix
        starts = list(accumulate(result.block_sizes, initial=0))

        def zero(a: int, b: int) -> bool:
            """Block a pairs to zero with block b."""
            rows = matrix[starts[a] : starts[a + 1]]
            return not any(any(row[starts[b] : starts[b + 1]]) for row in rows)

        for comp, lo, hi in zip(report.components, starts, starts[1:]):
            diag = [list(row[lo:hi]) for row in matrix[lo:hi]]
            m = comp.piece.dim  # 0 for a point block
            size = hi - lo
            want = [[comb(m + b - a, m) if b >= a else 0 for b in range(size)] for a in range(size)]
            if diag != want:
                failures.append(f"{name}: diagonal block {diag} != binomial {want}")
        # equal-dimension blocks should pair to zero both ways
        dims = [c.piece.dim for c in report.components]
        crossed = [
            (a, b)
            for a in range(len(dims))
            for b in range(len(dims))
            if a != b and dims[a] == dims[b] and not zero(a, b)
        ]
        context["equal_dim_blocks_orthogonal"][name] = not crossed

        if name == "p2-example":
            failures += [
                f"{name}: {('point', 'line')[dims[a]]} blocks {a},{b} not orthogonal"
                for a, b in crossed
            ]
            lines = [i for i, d in enumerate(dims) if d == 1]
            points = [i for i, d in enumerate(dims) if d == 0]
            one_way = [(a, b) for a in lines for b in points if not zero(a, b) and zero(b, a)]
            if not one_way:
                failures.append(f"{name}: no line-point block nonzero in exactly one direction")
            context["line_point_one_way"] = one_way
    return CheckResult(
        "gram-presets",
        PASS if not failures else FAIL,
        expected=[],
        actual=failures,
        context=context,
    )


def random_effective_projective_spec(
    rng: random.Random, n_max: int = 4, k_max: int = 4
) -> ActionSpec:
    """Random diagonal projective spec with trivial projective kernel."""
    while True:
        n = rng.randint(1, n_max)
        k = rng.randint(0, min(n, k_max))
        rows = [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(k)]
        spec = make_spec("projective", n, rows)
        if is_effective(spec):
            return spec


def check_random_rank_sweep(count: int = 200, seed: int = 20240913) -> CheckResult:
    """Closed-form rank and Burnside double sum agree on random specs, each checked once."""
    rng = random.Random(seed)
    draws: dict[ActionSpec, list[int]] = {}
    for i in range(count):
        draws.setdefault(random_effective_projective_spec(rng), []).append(i)
    failures = []
    for spec, indices in draws.items():
        report = assemble(spec)
        rank = check_projective_rank(spec, report)
        burnside = check_burnside_total(spec, report)
        if rank.status != PASS or burnside.status != PASS:
            failures += [(i, spec.to_dict(), rank.status, burnside.status) for i in indices]
    failures.sort()  # by draw index, which no two failures share
    return CheckResult(
        f"random-rank-sweep(count={count})",
        PASS if not failures else FAIL,
        expected=[],
        actual=failures,
        context={"seed": seed},
    )


def check_etale_sweep(n_max: int = 6) -> CheckResult:
    failures = [
        (n, k)
        for n in range(n_max + 1)
        for k in range(n + 1)
        if check_etale(n, k).status != PASS
    ]
    return CheckResult(
        f"etale-sweep(0<=k<=n<={n_max})",
        PASS if not failures else FAIL,
        expected=[],
        actual=failures,
    )


def run_battery() -> list[CheckResult]:
    """The default verification battery on bounded presets."""
    results = [check_etale_sweep()]
    p2 = p2_example()
    p2_report = assemble(p2)
    results.append(check_projective_rank(p2, p2_report))
    results.append(check_burnside_total(p2, p2_report))
    for n in range(1, 5):
        results.append(check_projective_rank(pn_full(n)))
    for q_dim in range(1, 6):
        results.append(check_quadric(q_dim))
    results.append(check_gram_presets())
    results.append(check_random_rank_sweep())
    return results
