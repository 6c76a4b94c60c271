"""Arithmetic for diagonal mu_2^k actions: elements, characters, action specs.

Everything downstream runs on three small facts:

* an element of mu_2^k and a character of mu_2^k are both length-k bit
  vectors over F_2 (every element squares to the identity, so characters
  are their own inverses);
* the pairing <chi, g> = (-1)^(chi . g) with the dot product taken mod 2;
* a diagonal action on c coordinates is a k x c bit matrix whose row i
  says which coordinates generator i negates, so column j is the
  character of coordinate j.

Bit vectors are stored as tuples of 0/1 ints.  The canonical enumeration
order is by integer value with bit i weighted 2^i, i.e. the first
generator is the least significant bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

Bits = tuple[int, ...]

SPACE_KINDS = ("affine", "projective", "fermat_quadric")


class SpecError(ValueError):
    """Raised for malformed or inconsistent action-spec documents."""


def bit_value(bits: Bits) -> int:
    """Integer value of a bit vector, bit i weighted 2^i."""
    return sum(b << i for i, b in enumerate(bits))


def bits_from_value(value: int, length: int) -> Bits:
    return tuple((value >> i) & 1 for i in range(length))


def identity(rank: int) -> Bits:
    return (0,) * rank


def elements(rank: int) -> list[Bits]:
    """All 2^rank elements in ascending bit-value order."""
    return [bits_from_value(v, rank) for v in range(1 << rank)]


def xor(a: Bits, b: Bits) -> Bits:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x ^ y for x, y in zip(a, b))


def weight(bits: Bits) -> int:
    """Number of nontrivial entries."""
    return sum(bits)


def dot(chi: Bits, g: Bits) -> int:
    """F_2 dot product <chi, g>."""
    if len(chi) != len(g):
        raise ValueError(f"length mismatch: {len(chi)} vs {len(g)}")
    return sum(x & y for x, y in zip(chi, g)) & 1


def pairing(chi: Bits, g: Bits) -> int:
    """Sign (-1)^<chi, g>, multiplicative in both arguments."""
    return -1 if dot(chi, g) else 1


def span(vectors: list[Bits], rank: int | None = None) -> list[Bits]:
    """F_2-linear span, deduplicated, in ascending bit-value order.

    ``rank`` is only needed to disambiguate the empty input, whose span
    is the trivial group of that rank.
    """
    if not vectors:
        if rank is None:
            raise ValueError("span of empty input needs an explicit rank")
        return [identity(rank)]
    k = len(vectors[0])
    out = {identity(k)}
    for v in vectors:
        if len(v) != k:
            raise ValueError("span inputs must share a length")
        out |= {xor(v, w) for w in out}
    return sorted(out, key=bit_value)


@dataclass(frozen=True)
class ActionSpec:
    """A diagonal mu_2^k action on affine space, projective space, or a
    Fermat quadric.

    ``dim`` is the space dimension: n for A^n and P^n, the quadric
    dimension for a Fermat quadric (the quadric sum x_i^2 = 0 lives in
    P^(dim+1), so the ambient has dim+2 coordinates).  ``rows`` is the
    k x c action matrix.
    """

    kind: str
    dim: int
    rank: int
    rows: tuple[Bits, ...]

    def __post_init__(self) -> None:
        if self.kind not in SPACE_KINDS:
            raise SpecError(f"unknown space kind {self.kind!r}")
        if self.dim < 0:
            raise SpecError("space dimension must be nonnegative")
        if self.rank < 0 or self.rank != len(self.rows):
            raise SpecError("group_rank must equal the number of action rows")
        c = self.num_coords
        for row in self.rows:
            if len(row) != c:
                raise SpecError(
                    f"action row of length {len(row)}, expected {c} for "
                    f"{self.kind} of dimension {self.dim}"
                )
            if any(not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1) for b in row):
                raise SpecError("action matrix entries must be 0 or 1")
        if self.kind == "affine" and self.rank > c:
            raise SpecError(
                f"rank {self.rank} cannot act effectively on {c} affine coordinates"
            )

    @property
    def num_coords(self) -> int:
        if self.kind == "affine":
            return self.dim
        if self.kind == "projective":
            return self.dim + 1
        return self.dim + 2

    @cached_property
    def characters(self) -> tuple[Bits, ...]:
        """Character of each coordinate: column j of the action matrix."""
        return tuple(
            tuple(row[j] for row in self.rows) for j in range(self.num_coords)
        )

    @cached_property
    def group(self) -> tuple[Bits, ...]:
        return tuple(elements(self.rank))

    def to_dict(self) -> dict:
        return {
            "space": {"kind": self.kind, "dim": self.dim},
            "group_rank": self.rank,
            "action": [list(row) for row in self.rows],
        }


def make_spec(kind: str, dim: int, rows: list[list[int]] | tuple[Bits, ...]) -> ActionSpec:
    return ActionSpec(kind, dim, len(rows), tuple(tuple(r) for r in rows))


def parse_spec(text: str) -> ActionSpec:
    """Parse an action-spec document (JSON).

    Expected shape::

        {"space": {"kind": "projective", "dim": 2},
         "group_rank": 2,
         "action": [[1, 0, 0], [0, 1, 0]]}

    Bit 1 in row i means generator i negates that coordinate.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("document must be a JSON object")
    try:
        space = doc["space"]
        kind = space["kind"]
        dim = space["dim"]
        rank = doc["group_rank"]
        action = doc["action"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"missing or malformed field: {exc}") from exc
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (dim, rank)):
        raise SpecError("space.dim and group_rank must be integers")
    if not isinstance(action, list) or any(not isinstance(r, list) for r in action):
        raise SpecError("action must be an array of bit rows")
    if len(action) != rank:
        raise SpecError(f"group_rank {rank} but {len(action)} action rows")
    return make_spec(kind, dim, action)


def projective_kernel(spec: ActionSpec) -> list[Bits]:
    """Elements acting trivially on the space.

    Affine: all coordinate characters evaluate to +1.  Projective and
    quadric: all coordinate characters agree (the element acts by a
    global scalar, which is trivial in PGL).
    """
    chars = spec.characters
    kernel = []
    for g in spec.group:
        signs = [dot(chi, g) for chi in chars]
        if spec.kind == "affine":
            if all(s == 0 for s in signs):
                kernel.append(g)
        elif len(set(signs)) <= 1:
            kernel.append(g)
    return kernel


def is_effective(spec: ActionSpec) -> bool:
    return projective_kernel(spec) == [identity(spec.rank)]
