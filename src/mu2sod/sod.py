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
ordered by first occurrence), replaying the moves on a Gram matrix when
one is supplied to record which moves are orthogonal transpositions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import mutations
from .groups import ActionSpec, bit_list, projective_kernel
from .inertia import InertiaComponent, components


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
    # stable: components() lists ties by element, + sector before - sector,
    # then split index, which is the rest of the documented tie-break
    comps = sorted(components(spec), key=lambda c: (-c.piece.dim, c.element.bit_count()))
    grouping: dict[int, list[int]] = {}
    for pos, comp in enumerate(comps):
        grouping.setdefault(comp.element, []).append(pos)
    kernel = projective_kernel(spec)
    return SodReport(
        spec=spec,
        components=tuple(comps),
        total_rank=sum(c.rank for c in comps),
        grouping=tuple((g, tuple(ps)) for g, ps in grouping.items()),
        effective=kernel == [0],
        kernel=tuple(kernel),
        smoothness_warnings=tuple(
            pos for pos, c in enumerate(comps) if _smoothness(c) == "unknown"
        ),
    )


def piece_label(comp: InertiaComponent) -> str:
    """Short human-readable tag, e.g. P1[1,2] or pt[0]."""
    kind = comp.piece.kind
    if kind == "point_pair":
        name = "pair" if comp.split_index is None else f"pair.{comp.split_index}"
    else:
        name = "pt" if kind == "point" else f"{_LETTERS[kind]}{comp.piece.dim}"
    return f"{name}[{','.join(map(str, comp.piece.support))}]"


_LETTERS = {"affine": "A", "projective": "P", "fermat": "Q"}


def coarse_label(comp: InertiaComponent) -> str:
    """Short tag of the coarse space, e.g. P2, A3, pt or undetermined(2)."""
    dim = comp.piece.dim
    names = {"affine": f"A{dim}", "projective": f"P{dim}", "point": "pt"}
    return names.get(comp.coarse, f"undetermined({dim})")


def report_to_dict(report: SodReport) -> dict:
    doc = report.spec.to_dict()
    k = report.spec.rank
    doc["components"] = [
        {
            "element": bit_list(c.element, k),
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
    ]
    doc["order"] = list(range(len(report.components)))
    doc["total_rank"] = report.total_rank
    doc["grouping"] = [
        {"element": bit_list(g, k), "positions": list(ps)} for g, ps in report.grouping
    ]
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


def grouped_block_order(report: SodReport) -> list[int]:
    """Target block order: same-element pieces contiguous, elements by
    first occurrence, pieces of one element in report order."""
    return [pos for _, positions in report.grouping for pos in positions]


def msodc_plan(report: SodReport, gram: Sequence[Sequence[int]] | None = None) -> MutationPlan:
    """Leftward adjacent block moves regrouping the pieces by element.

    Every component of the report is one block.  When ``gram`` is given
    (the canonical-generator Gram matrix in report order, so block i has
    ``report.components[i].rank`` rows), the moves are replayed on it
    and each is flagged orthogonal iff the adjacent blocks pair to zero
    in both directions at that moment; without a Gram the flag is None
    (undecidable).
    """
    target = grouped_block_order(report)
    order = list(range(len(report.components)))
    steps: list[int] = []  # the moves depend on the block order alone
    for t in range(len(target)):
        p = order.index(target[t])
        while p > t:
            steps.append(p)
            order.insert(p - 1, order.pop(p))
            p -= 1
    if gram is None:
        moves = [mutations.Move(p, "left", None) for p in steps]
    else:
        sizes = tuple(c.rank for c in report.components)
        if len(gram) != sum(sizes):
            raise ValueError(
                f"Gram has {len(gram)} rows but the report's blocks need {sum(sizes)}"
            )
        seq = mutations.identity_sequence(gram, sizes)
        _, moves = mutations.apply_script(seq, [{"block": p, "direction": "left"} for p in steps])
    return MutationPlan(moves=tuple(moves), block_order=tuple(order))
