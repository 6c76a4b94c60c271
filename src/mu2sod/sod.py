"""Assembly of the dimension-ordered semiorthogonal decomposition.

Components are sorted by weakly decreasing coarse dimension; ties break
deterministically by (element weight ascending, element value
ascending, + sector before - sector, split index).  Any refinement of
the dimensional order is admissible, so the tie-break is a convention,
fixed here once so reports are reproducible.  The sort key is only
(dimension, weight): the sort is stable, and ``inertia.components``
emits ties in the order of the rest of the tie-break.

``msodc_plan`` produces the leftward block moves that regroup the
decomposition so all pieces of one group element sit together (blocks
ordered by first occurrence).  Given the unipotent Gram of the
canonical generators, it flags which moves are orthogonal
transpositions by projecting each moving element on the Gram it was
given, without replaying the moves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, compress

from . import mutations
from .groups import ActionSpec, bit_list
from .inertia import InertiaComponent, components

# a larger plan is refused: pn-full n = 11 (3,513,378 moves) took 1.5 GB and 21 s
MAX_MOVES = 1_000_000


@dataclass(frozen=True)
class SodReport:
    spec: ActionSpec
    components: tuple[InertiaComponent, ...]  # in decomposition order
    total_rank: int
    grouping: tuple[tuple[int, tuple[int, ...]], ...]  # element -> positions
    effective: bool
    kernel: tuple[int, ...]
    smoothness_warnings: tuple[int, ...]  # positions with unknown smoothness


def _smoothness(comp: InertiaComponent) -> str:
    """Smoothness of the coarse space, known wherever its kind is."""
    return "unknown" if comp.coarse == "undetermined" else "smooth"


def assemble(spec: ActionSpec) -> SodReport:
    comps = components(spec)
    # g acts trivially iff it fixes the whole space, i.e. one of its pieces
    # is supported on every coordinate (never an empty piece: a quadric has
    # at least 2 coordinates); both halves of a split pair are such pieces
    whole = spec.num_coords
    kernel = tuple(dict.fromkeys(c.element for c in comps if len(c.piece.support) == whole))
    # stable: components() lists ties by element, + sector before - sector,
    # then split index, which is the rest of the documented tie-break
    comps.sort(key=lambda c: (-c.piece.dim, c.element.bit_count()))
    grouping: dict[int, list[int]] = {}
    for pos, comp in enumerate(comps):
        grouping.setdefault(comp.element, []).append(pos)
    return SodReport(
        spec=spec,
        components=tuple(comps),
        total_rank=sum(c.rank for c in comps),
        grouping=tuple((g, tuple(ps)) for g, ps in grouping.items()),
        effective=kernel == (0,),
        kernel=kernel,
        smoothness_warnings=tuple(
            pos for pos, c in enumerate(comps) if _smoothness(c) == "unknown"
        ),
    )


def piece_label(comp: InertiaComponent) -> str:
    """Short human-readable tag, e.g. P1[1,2] or pt[0]."""
    kind, support, dim = comp.piece
    return f"{_label_name(kind, dim, comp.split_index)}[{','.join(map(str, support))}]"


def _label_name(kind: str, dim: int, split_index: int | None) -> str:
    """The part of ``piece_label`` before the support, e.g. P1 or pair.2."""
    if kind == "point_pair":
        return "pair" if split_index is None else f"pair.{split_index}"
    return "pt" if kind == "point" else f"{_LETTERS[kind]}{dim}"


_LETTERS = {"affine": "A", "projective": "P", "fermat": "Q"}


def coarse_label(comp: InertiaComponent) -> str:
    """Short tag of the coarse space, e.g. P2, A3, pt or undetermined(2)."""
    dim = comp.piece.dim
    names = {"affine": f"A{dim}", "projective": f"P{dim}", "point": "pt"}
    return names.get(comp.coarse, f"undetermined({dim})")


def report_to_dict(report: SodReport, full: bool = True) -> dict:
    """The report's ``--json`` document, or only the components and flags."""
    return _report_doc(report, full, [
        {
            "element": bit_list(c.element, report.spec.rank),
            "support": list(c.piece.support),
            "geometry": c.piece.kind,
            "dim": c.piece.dim,
            "coarse_type": {"kind": c.coarse, "dim": c.piece.dim},
            "rank": c.rank,
            "split_index": c.split_index,
            "smooth": _smoothness(c),
            "label": piece_label(c),
        }
        for c in report.components
    ])


def _report_doc(report: SodReport, full: bool, components) -> dict:
    """``report_to_dict``'s document around a given ``components`` value."""
    k = report.spec.rank
    doc = report.spec.to_dict() if full else {}
    doc["components"] = components
    if full:
        doc["order"] = list(range(len(report.components)))
        doc["total_rank"] = report.total_rank
        doc["grouping"] = [{"element": bit_list(g, k), "positions": list(ps)} for g, ps in report.grouping]
    doc["flags"] = {
        "effective": report.effective,
        "kernel": [bit_list(g, k) for g in report.kernel],
        "smoothness_warnings": list(report.smoothness_warnings),
    }
    return doc


@dataclass(frozen=True)
class MutationPlan:
    moves: tuple[mutations.Move, ...]
    block_order: tuple[int, ...]  # final order of the original block indices

    def to_dict(self) -> dict:
        return {"moves": [m.to_dict() for m in self.moves], "block_order": list(self.block_order)}


def _passing_flags(
    above: list[list[tuple[int, int]]], bounds: list[range], block: int, passed: list[int]
) -> list[bool]:
    """Whether ``block`` pairs to zero with each block of ``passed``, in
    passing order, just before it passes it.

    Each element e passes the objects of ``passed`` in descending index
    order, all of them original.  ``w[x]`` is the pairing of x with the
    current e; passing a with c = w[a] turns e into e - c a, so each w[x]
    with x < a drops by c G[x][a].  Pairings from e back to a passed
    block stay 0 in a unipotent Gram, so only w is read."""
    orthogonal = [True] * len(passed)
    for e in bounds[block]:
        w = [0] * len(above)
        for x, value in above[e]:
            w[x] = value
        for i, span in enumerate(map(bounds.__getitem__, passed)):
            if any(w[span.start : span.stop]):
                orthogonal[i] = False
            for a in reversed(span):
                c = w[a]
                if c:
                    for x, value in above[a]:
                        w[x] -= c * value
    return orthogonal


def regrouping(report: SodReport) -> tuple[list[int], list[list[int]]]:
    """``msodc_plan``'s target order, and the blocks each placed block passes,
    nearest first; more than ``MAX_MOVES`` moves are refused with ``ValueError``."""
    target = [pos for _, positions in report.grouping for pos in positions]
    unplaced, passes = list(range(len(report.components))), []
    for block in target:
        i = unplaced.index(block)
        passes.append(unplaced[:i][::-1])
        del unplaced[i]
    if (count := sum(map(len, passes))) > MAX_MOVES:
        raise ValueError(f"regrouping plan of {count} moves exceeds the limit of {MAX_MOVES}")
    return target, passes


def msodc_plan(report: SodReport, gram: Sequence[Sequence[int]] | None = None) -> MutationPlan:
    """Leftward adjacent block moves regrouping the pieces by element.

    Every component of the report is one block.  The target order keeps
    same-element pieces contiguous, elements by first occurrence and the
    pieces of one element in report order; each block moves once, when
    it is placed, leftward past the unplaced blocks before it, which
    have never moved.  When ``gram`` is given (the canonical-generator
    Gram in report order, so block i has ``report.components[i].rank``
    rows), it must be unipotent upper triangular, and each move is
    flagged orthogonal iff the two blocks pair to zero at that moment.
    A left mutation through an exceptional block is the projection onto
    its left orthogonal, fixed by the original pairings, so the flags
    are read off ``gram`` without replaying the moves.  Without a Gram
    the flag is None (undecidable).  ``regrouping`` refuses an oversized plan.
    """
    starts = [0, *accumulate(c.rank for c in report.components)]
    bounds = list(map(range, starts, starts[1:]))
    target, passes = regrouping(report)
    if gram is not None:
        n = len(gram)
        if n != starts[-1]:
            raise ValueError(f"Gram has {n} rows but the report's blocks need {starts[-1]}")
        if any(len(row) != n for row in gram) or not mutations.is_unipotent_upper(gram):
            raise ValueError("the Gram must be unipotent upper triangular")
        # above[a]: the nonzero (x, G[x][a]) with x < a
        above: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for x, row in enumerate(gram):
            for a in compress(range(x + 1, n), row[x + 1 :]):
                above[a].append((x, row[a]))
    moves: list[mutations.Move] = []
    for t, (block, passed) in enumerate(zip(target, passes)):
        flags = [None] * len(passed) if gram is None else _passing_flags(above, bounds, block, passed)
        moves += [mutations.Move(q, "left", f) for q, f in zip(range(t + len(passed), t, -1), flags)]
    return MutationPlan(moves=tuple(moves), block_order=tuple(target))
