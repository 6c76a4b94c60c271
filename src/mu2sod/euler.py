"""Equivariant Euler pairings of twisted coordinate-subspace sheaves.

Works on the ambient projective space of a spec.  A ``KObject``
(support T, twist d, character chi) stands for the K-class of the
pushforward of O_{P(V_T)}(d) tensored with chi.  Its Koszul complex
resolves it by ambient line bundles, one term (d - |S|, chi + chi_S)
with sign (-1)^|S| per subset S of the coordinates off T, and a term
(t, x) pairs with (T', d', chi') as the multiplicity of chi' + x in
H^*(P(V_T'), O(d' - t)).  Global sections are spanned by monomials,
each an eigenvector whose character is the mod-2 exponent pattern; top
cohomology (e <= -|T'|) by inverse monomials with all exponents >= 1,
with sign (-1)^(|T'|-1); in between it vanishes.  Characters are
self-inverse, so all character bookkeeping is XOR on their int
encodings.

Cost model.  An object's Koszul terms are read off the cached parity
table of its complement's characters into a profile: the terms summed
per (twist, character), at most 2^c keys on c coordinates.  ``gram``
packs the columns into fixed-width lanes of big ints (Kronecker
substitution): per profile key (t, x), one int whose lane j holds the
multiplicity with which that key pairs into column j, filed once per
matrix from each target's nonzero cohomology entries (at most 2^k per
twist, also read off a parity table).  A row is then one big-int
multiply-add per profile term, unpacked by ``int.to_bytes`` and
``array``.  The lane width comes from a bound computed for each matrix,
the largest sum of |s| over a profile times the largest |m| of an entry:
the smallest signed machine int of 1, 2, 4 or 8 bytes that holds it,
or wider lanes unpacked one by one.  A character twist only XORs
profile keys, so ``character_normalization`` tests every twist of a
block against the packed index of the objects already placed, one
comparison with 0 per row.  ``gram_report`` recomputes the Gram of the
twisted objects when the trivial choice is not triangular and twists
are found.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, starmap
from math import comb

from .groups import ActionSpec, bit_list
from .mutations import is_unipotent_upper
from .sod import SodReport, coarse_label


class EulerError(ValueError):
    """Raised for pairings the engine does not define (e.g. affine ambient)."""


# The Gram's tuple rows alone take 8 N^2 bytes, 2.1 GB at this size, so a
# larger canonical collection (pn-full n >= 11) is refused before any profile.
MAX_GRAM = 16_384


@dataclass(frozen=True)
class KObject:
    """Class of the pushforward of O_{P(V_T)}(twist) tensor char."""

    support: tuple[int, ...]
    twist: int
    char: int

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("KObject needs a nonempty support")
        object.__setattr__(self, "support", tuple(sorted(self.support)))

    def twisted(self, psi: int) -> KObject:
        return replace(self, char=self.char ^ psi)


def _check_ambient(spec: ActionSpec) -> None:
    if spec.kind == "affine":
        raise EulerError("Euler pairings need a proper ambient space")


def _char_values(spec: ActionSpec, support) -> tuple[int, ...]:
    return tuple(spec.characters[i] for i in support)


@lru_cache(maxsize=None)
def _parity_classes(chars: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per subset size, the (character value, count) classes of the
    subsets of the coordinates: the odd slots of an exponent vector and
    the character they carry."""
    subsets = [(0, 0)]
    for cv in chars:
        subsets += [(size + 1, value ^ cv) for size, value in subsets]
    per_size: list[list[tuple[int, int]]] = [[] for _ in range(len(chars) + 1)]
    for (size, value), count in Counter(subsets).items():
        per_size[size].append((value, count))
    return tuple(map(tuple, per_size))


@lru_cache(maxsize=None)
def _cohomology_entries(chars: tuple[int, ...], e: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (character value, multiplicity) pairs of H^*(P^(t-1), O(e));
    ``chars`` are the coordinate character values."""
    t = len(chars)
    if 1 - t <= e <= -1:
        return ()
    negative = e < 0
    degree = -e if negative else e
    sign = (-1) ** (t - 1) if negative else 1
    entries: dict[int, int] = {}
    for size, classes in enumerate(_parity_classes(chars)):
        # exponents are >= 1 when negative: odd slots start at 1, even slots at 2
        doubled = degree - size - (2 * (t - size) if negative else 0)
        if doubled >= 0 and doubled % 2 == 0:
            # one binomial per size; every term has the sign of H^*, so no sum vanishes
            factor = sign * comb(doubled // 2 + t - 1, t - 1)
            for value, count in classes:
                entries[value] = entries.get(value, 0) + factor * count
    return tuple(entries.items())


# (twist, character value) -> summed sign of the Koszul terms there
_Profile = dict[tuple[int, int], int]


def _profile(spec: ActionSpec, obj: KObject) -> _Profile:
    """``obj``'s Koszul terms summed per (twist, character value), read off
    the parity table of its complement's characters.  Terms under one key
    come from subsets of one size, so they share a sign and no sum
    vanishes.  Twisting ``obj`` by psi XORs psi into every key."""
    _check_ambient(spec)
    complement = [i for i in range(spec.num_coords) if i not in obj.support]
    return {
        (obj.twist - size, obj.char ^ value): (-1) ** size * count
        for size, classes in enumerate(_parity_classes(_char_values(spec, complement)))
        for value, count in classes
    }


# profile twist t -> one packed int per character value c: lane j holds the
# multiplicity with which a profile term (t, c) pairs into column j
_Index = dict[int, list[int]]

# array typecodes of the signed machine ints, by size in bytes
_LANE_CODES = {array(code).itemsize: code for code in "bhilq"}


def _empty_index(
    spec: ActionSpec, profiles: list[_Profile], targets: list[KObject]
) -> tuple[_Index, int]:
    """An index with no column filed, keyed by the twists of ``profiles``,
    and its lane size in bytes.  A lane holds a pairing of a profile with
    a target, a sum of s * m over the profile's terms, so it needs the
    largest sum of |s| times the largest |m| of a target's entries."""
    twists = {t for p in profiles for t, _ in p}
    distinct = {(_char_values(spec, f.support), f.twist) for f in targets}
    entries = {(chars, d - t) for chars, d in distinct for t in twists}
    multiplicities = [m for _, m in chain.from_iterable(starmap(_cohomology_entries, entries))]
    biggest = max(max(multiplicities, default=0), -min(multiplicities, default=0))
    bound = biggest * max((sum(map(abs, p.values())) for p in profiles), default=0)
    need = bound.bit_length() // 8 + 1  # one bit more for the sign
    lane = min((s for s in _LANE_CODES if s >= need), default=need)
    return {t: [0] * (1 << spec.rank) for t in twists}, lane


def _file(
    spec: ActionSpec, index: _Index, targets: list[KObject], first_column: int, lane: int
) -> None:
    """File target j = first_column, ... into lane j: H^*(O(f.twist - t))
    has multiplicity m at x, so a profile term (t, f.char ^ x) with sign s
    adds s * m to column j."""
    for j, f in enumerate(targets, first_column):
        chars, d, c = _char_values(spec, f.support), f.twist, f.char
        shift = 8 * lane * j
        for t, lanes in index.items():
            for x, m in _cohomology_entries(chars, d - t):
                lanes[c ^ x] += m << shift


def _packed_row(profile: _Profile, index: _Index, psi: int) -> int:
    """The pairings of the psi-twist of ``profile``'s object with the
    indexed targets, one per lane: one big-int multiply-add per profile
    term."""
    return sum(s * index[t][x ^ psi] for (t, x), s in profile.items())


def _unpack(packed: int, lane: int, count: int) -> list[int]:
    """The ``count`` two's-complement ``lane``-byte lanes of ``packed``."""
    data = packed.to_bytes(lane * count, "little")
    code = _LANE_CODES.get(lane)
    if code is None:
        return [
            int.from_bytes(data[i : i + lane], "little", signed=True)
            for i in range(0, len(data), lane)
        ]
    lanes = array(code, data)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes.tolist()


def gram(spec: ActionSpec, objects: list[KObject]) -> list[list[int]]:
    """chi^G over all ordered pairs of ``objects``: one profile per
    object, one packed target index for the matrix.  Adding half of each
    lane's range (the bias) makes every lane of a row nonnegative, so
    its bytes are the lanes', and XOR with the bias leaves each lane in
    two's complement."""
    _check_ambient(spec)
    profiles = [_profile(spec, e) for e in objects]
    index, lane = _empty_index(spec, profiles, objects)
    _file(spec, index, objects, 0, lane)
    n = len(objects)
    bias = int.from_bytes((1 << (8 * lane - 1)).to_bytes(lane, "little") * n, "little")
    return [_unpack((_packed_row(p, index, 0) + bias) ^ bias, lane, n) for p in profiles]


def canonical_generators(
    spec: ActionSpec, report: SodReport
) -> tuple[list[KObject], tuple[int, ...]]:
    """Generator classes of each decomposition piece, with block sizes.

    A piece with coarse moduli P^m on support T contributes the
    pullbacks of O(0), ..., O(m), i.e. twists growing by the degree of
    the quotient map that its component carries (2 for a squaring
    quotient, 1 for an identity quotient); a point piece contributes its
    skyscraper.  Only fully classified projective specs are supported.
    """
    if spec.kind == "fermat_quadric":
        raise EulerError("canonical generators on a quadric are not supported")
    _check_ambient(spec)
    objects: list[KObject] = []
    sizes: list[int] = []
    for comp in report.components:
        if comp.coarse == "projective":
            block = [KObject(comp.piece.support, comp.degree * t, 0) for t in range(comp.piece.dim + 1)]
        elif comp.coarse == "point":
            block = [KObject(comp.piece.support[:1], 0, 0)]
        else:
            raise EulerError(
                f"no canonical generators for coarse type {coarse_label(comp)}"
            )
        objects.extend(block)
        sizes.append(len(block))
    return objects, tuple(sizes)


def character_normalization(
    spec: ActionSpec, objects: list[KObject], sizes: tuple[int, ...]
) -> list[int] | None:
    """Greedy search for per-block character twists making the Gram
    unipotent upper triangular.

    Twisting a whole block by one character is an autoequivalence, so it
    never disturbs the block's internal pairings; blocks are processed
    left to right and each keeps the first character (trivial first)
    killing all pairings against the already-placed objects.  Returns
    None when some block admits no such character.
    """
    profiles = [_profile(spec, obj) for obj in objects]
    index, lane = _empty_index(spec, profiles, objects)
    chosen: list[int] = []
    placed = 0
    for size in sizes:
        block = range(placed, placed + size)
        for psi in spec.group:
            # balanced lanes: a packed row is 0 iff every pairing in it is
            if not any(_packed_row(profiles[i], index, psi) for i in block):
                break
        else:
            return None
        chosen.append(psi)
        _file(spec, index, [objects[i].twisted(psi) for i in block], placed, lane)
        placed += size
    return chosen


@dataclass(frozen=True)
class GramResult:
    objects: tuple[KObject, ...]
    block_sizes: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]
    twists: tuple[int, ...]  # character applied to each block
    normalized: bool  # True if a nontrivial normalization was needed
    triangular: bool
    rank: int  # group rank, the length of the serialized characters

    def to_dict(self) -> dict:
        return {
            "blocks": list(self.block_sizes),
            "matrix": self.matrix,
            "objects": [
                {"support": list(o.support), "twist": o.twist, "char": bit_list(o.char, self.rank)}
                for o in self.objects
            ],
            "twists": [bit_list(t, self.rank) for t in self.twists],
            "normalized": self.normalized,
            "triangular": self.triangular,
        }


def gram_report(spec: ActionSpec, report: SodReport) -> GramResult:
    """Canonical-generator Gram of a report, auto-normalizing characters
    if the default trivial choice is not triangular."""
    objects, sizes = canonical_generators(spec, report)
    if len(objects) > MAX_GRAM:
        raise EulerError(f"Gram size {len(objects)} exceeds the limit of {MAX_GRAM}")
    matrix = gram(spec, objects)
    triangular = is_unipotent_upper(matrix)
    twists = None if triangular else character_normalization(spec, objects, sizes)
    if twists is not None:
        per_object = [psi for psi, size in zip(twists, sizes) for _ in range(size)]
        objects = [obj.twisted(psi) for obj, psi in zip(objects, per_object)]
        matrix = gram(spec, objects)
        triangular = is_unipotent_upper(matrix)
    return GramResult(
        tuple(objects),
        sizes,
        tuple(tuple(r) for r in matrix),
        (0,) * len(sizes) if twists is None else tuple(twists),
        normalized=twists is not None,
        triangular=triangular,
        rank=spec.rank,
    )
