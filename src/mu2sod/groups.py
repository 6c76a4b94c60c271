"""Arithmetic for diagonal mu_2^k actions: elements, characters, action specs.

Everything downstream runs on three small facts:

* an element of mu_2^k and a character of mu_2^k are both length-k bit
  vectors over F_2 (every element squares to the identity, so characters
  are their own inverses);
* the pairing <chi, g> = (-1)^(chi . g) with the dot product taken mod 2;
* a diagonal action on c coordinates is a k x c bit matrix whose row i
  says which coordinates generator i negates, so column j is the
  character of coordinate j.

Elements and characters are plain ints with bit i standing for generator
i: the dot product is ``(chi & g).bit_count() & 1``, the group law is
``^``, and the group enumerates as ``range(1 << k)``.  Little-endian 0/1
lists appear only at the JSON boundary: the ``action`` rows of a spec
document and the element and character fields of the outputs
(``bit_list``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

SPACE_KINDS = ("affine", "projective", "fermat_quadric")

# Every layer loops over the 2^k group elements, and the Burnside oracle over
# unordered pairs of distinct sign masks (8.4 million at k = 12, about 2 s on
# a 2-core Xeon VM), so larger ranks are refused as input errors.
MAX_GROUP_RANK = 12
# The Gram of a projective spec walks the 2^c subsets of its c coordinates,
# so its cost doubles with every dimension; larger spaces are refused too.
# Within both limits a Gram can still outgrow memory (53,248 rows at pn-full
# n = 12), so euler.MAX_GRAM bounds its size on its own.
MAX_DIM = 16


class SpecError(ValueError):
    """Raised for malformed or inconsistent action-spec documents."""


def bit_list(value: int, length: int) -> list[int]:
    """Little-endian 0/1 list of ``value``: entry i is bit i."""
    return [(value >> i) & 1 for i in range(length)]


def dot(chi: int, g: int) -> int:
    """F_2 dot product <chi, g>."""
    return (chi & g).bit_count() & 1


def f2_rank(values) -> int:
    """Rank over F_2 of ints read as bit vectors (an XOR basis)."""
    pivots: dict[int, int] = {}  # leading bit -> the one basis vector that has it
    for v in values:
        while p := pivots.get(top := v.bit_length()):
            v ^= p
        if v:
            pivots[top] = v
    return len(pivots)


def check_size(dim: int, rank: int) -> None:
    if dim > MAX_DIM:
        raise SpecError(f"space dimension {dim} exceeds the limit of {MAX_DIM}")
    if rank > MAX_GROUP_RANK:
        raise SpecError(f"group_rank {rank} exceeds the limit of {MAX_GROUP_RANK}")


@dataclass(frozen=True)
class ActionSpec:
    """A diagonal mu_2^k action on affine space, projective space, or a
    Fermat quadric.

    ``dim`` is the space dimension: n for A^n and P^n, the quadric
    dimension for a Fermat quadric (the quadric sum x_i^2 = 0 lives in
    P^(dim+1), so the ambient has dim+2 coordinates).  ``rows`` is the
    k x c action matrix of 0/1 entries, as parsed.
    """

    kind: str
    dim: int
    rank: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in SPACE_KINDS:
            raise SpecError(f"unknown space kind {self.kind!r}")
        if self.dim < 0:
            raise SpecError("space dimension must be nonnegative")
        if self.rank < 0 or self.rank != len(self.rows):
            raise SpecError("group_rank must equal the number of action rows")
        check_size(self.dim, self.rank)
        c = self.num_coords
        for row in self.rows:
            if len(row) != c:
                raise SpecError(
                    f"action row of length {len(row)}, expected {c} for "
                    f"{self.kind} of dimension {self.dim}"
                )
            if {*map(type, row)} <= {int} and {*row} <= {0, 1}:
                continue  # exact 0/1 ints, on two set tests
            if any(not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1) for b in row):
                raise SpecError("action matrix entries must be 0 or 1")
        if self.kind == "affine" and self.rank > c:
            raise SpecError(
                f"rank {self.rank} cannot act effectively on {c} affine coordinates"
            )

    @cached_property
    def num_coords(self) -> int:
        if self.kind == "affine":
            return self.dim
        if self.kind == "projective":
            return self.dim + 1
        return self.dim + 2

    @cached_property
    def characters(self) -> tuple[int, ...]:
        """Character of each coordinate: column j of the action matrix."""
        return tuple(
            sum(row[j] << i for i, row in enumerate(self.rows))
            for j in range(self.num_coords)
        )

    @property
    def group(self) -> range:
        return range(1 << self.rank)

    def to_dict(self) -> dict:
        return {
            "space": {"kind": self.kind, "dim": self.dim},
            "group_rank": self.rank,
            "action": [list(row) for row in self.rows],
        }


def make_spec(kind: str, dim: int, rows: list[list[int]] | tuple[tuple[int, ...], ...]) -> ActionSpec:
    """Spec from a list of 0/1 action rows."""
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
    except (json.JSONDecodeError, RecursionError) as exc:
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


def is_effective(spec: ActionSpec) -> bool:
    """Whether only the identity acts trivially, read off the characters.

    g is in the kernel iff it pairs to 0 with every coordinate character
    (affine) or with every chi_i + chi_0 (projective and quadric, where
    the global sign is trivial), so the kernel is trivial iff those
    characters span all k dimensions.
    """
    chars = spec.characters
    if spec.kind != "affine":
        chars = tuple(chi ^ chars[0] for chi in chars)
    return f2_rank(chars) == spec.rank
