"""Mutations of exceptional sequences at the Grothendieck-group level.

A sequence is an ordered basis v_1..v_N of Z^N together with a fixed
integer bilinear form B; pairing(i, j) = v_i^T B v_j plays the role of
the Euler pairing chi(E_i, E_j).  The sequence convention is that
Hom(later, earlier) vanishes, so the pairing matrix must be unipotent
upper triangular for the sequence to be semiorthogonal.

A left mutation at position i replaces the adjacent pair (a, b) by
(b - pairing(a, b) * a, a); a right mutation is the inverse braid move.
Both are unimodular operations on the basis, so the basis stays a basis,
and both act on the pairing matrix G = V B V^T by congruence: the same
operation on rows p, q, then on columns p, q.
Blocks partition the positions into contiguous runs; block moves in
``apply_script`` compose elementwise mutations so that a whole block
passes an adjacent one, then swap the two block sizes.

Cost model.  A sequence is only (form, vectors, blocks).  Each public
move and each ``apply_script`` builds one replay, which derives
G = V B V^T once with the product that skips the zeros of V, about
O(N^2 nnz) on vectors with nnz nonzero entries per row and O(N^3) on
dense ones, and maps positions to slots: an elementary mutation's swap
is O(1) and its shear, skipped when the pairing is 0, is O(N).  A chain
of single-step calls pays that product on every call; ``apply_script``
pays it once.  ``is_semiorthogonal`` uses the same product, and
``determinant`` is Bareiss elimination that skips the rows with no
entry in the pivot column, of the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def _product(left: Matrix, right: Matrix) -> list[list[int]]:
    """left · right, each row a combination of the rows of ``right``
    that skips the zeros of the matching row of ``left``."""
    width = len(right[0]) if right else 0
    out = []
    for coefficients in left:
        row = [0] * width
        for x, right_row in zip(coefficients, right):
            if x:
                row = [r + x * b for r, b in zip(row, right_row)]
        out.append(row)
    return out


@dataclass(frozen=True)
class ExceptionalSequence:
    form: Matrix
    vectors: Matrix
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.form)
        if any(len(row) != n for row in self.form):
            raise ValueError("bilinear form must be square")
        if len(self.vectors) != n or any(len(v) != n for v in self.vectors):
            raise ValueError("need N lattice vectors of length N")
        if sum(self.blocks) != n or any(b <= 0 for b in self.blocks):
            raise ValueError("blocks must be a partition of the positions")

    def __len__(self) -> int:
        return len(self.vectors)

    def to_dict(self) -> dict:
        return {
            "form": [list(r) for r in self.form],
            "vectors": [list(v) for v in self.vectors],
            "blocks": list(self.blocks),
        }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(value, name: str) -> tuple[int, ...]:
    # exact ints pass on one C-level test; int subclasses take the slow path
    if not isinstance(value, list) or not (
        {*map(type, value)} <= {int} or all(_is_int(x) for x in value)
    ):
        raise ValueError(f"{name} must be a list of integers")
    return tuple(value)


def _int_rows(value, name: str) -> Matrix:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of integer lists")
    return tuple(_int_list(row, f"each row of {name}") for row in value)


def sequence_from_dict(doc: dict) -> ExceptionalSequence:
    if not isinstance(doc, dict) or any(k not in doc for k in ("form", "vectors", "blocks")):
        raise ValueError("sequence must be an object with form, vectors and blocks")
    return ExceptionalSequence(
        _int_rows(doc["form"], "form"),
        _int_rows(doc["vectors"], "vectors"),
        _int_list(doc["blocks"], "blocks"),
    )


def identity_sequence(form, blocks=None) -> ExceptionalSequence:
    """Standard-basis sequence on a given form, which is then its pairing
    matrix; one block per position unless a block partition is supplied."""
    n = len(form)
    if blocks is None:
        blocks = (1,) * n
    form = tuple(tuple(r) for r in form)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return ExceptionalSequence(form, identity, tuple(blocks))


def gram_matrix(seq: ExceptionalSequence) -> list[list[int]]:
    """G = V B V^T, as V (V B^T)^T: row j of V B^T is B v_j."""
    form_vectors = _product(seq.vectors, tuple(zip(*seq.form)))
    return _product(seq.vectors, tuple(zip(*form_vectors)))


def is_unipotent_upper(matrix: list[list[int]]) -> bool:
    """1 on the diagonal and 0 below it."""
    return all(row[i] == 1 and not any(row[:i]) for i, row in enumerate(matrix))


def is_semiorthogonal(seq: ExceptionalSequence) -> bool:
    """pairing(i, i) = 1 for all i and pairing(i, j) = 0 for i > j."""
    return is_unipotent_upper(gram_matrix(seq))


def determinant(vectors: Matrix) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination).

    A row with 0 in the pivot column only scales, exactly, by
    p / previous, and not at all when p == previous.
    """
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
        p, tail = top[col], top[col + 1 :]
        for r in range(col + 1, n):
            row = m[r]
            factor = row[col]
            if factor:
                m[r] = [0] * (col + 1) + [
                    (p * x - factor * y) // previous for x, y in zip(row[col + 1 :], tail)
                ]
            elif p != previous:
                m[r] = [p * x // previous if x else 0 for x in row]
        previous = p
    return sign * m[-1][-1] if n else 1


def is_unimodular(seq: ExceptionalSequence) -> bool:
    return determinant(seq.vectors) in (1, -1)


def _orthogonal(g, left, right) -> bool:
    """Whether two index sets pair to zero both ways in G = ``g``."""
    return not any(any(map(g[i].__getitem__, right)) for i in left) and not any(
        any(map(g[j].__getitem__, left)) for j in right
    )


@dataclass(frozen=True)
class Move:
    block: int
    direction: str
    orthogonal: bool | None  # None = unknown (no Gram given)

    def to_dict(self) -> dict:
        return {"block": self.block, "direction": self.direction, "orthogonal": self.orthogonal}


class _Replay:
    """Mutable copy of a sequence's vectors and blocks, with the pairing
    matrix G derived once from them.

    Rows of V and rows and columns of G stay where they were made;
    ``slots[pos]`` is where the element at position ``pos`` lives, so the
    entry of G at positions (i, j) is ``gram[slots[i]][slots[j]]``.  Each
    public mutation builds one, works on it and freezes the vectors;
    ``apply_script`` runs all of its moves on one.
    """

    def __init__(self, seq: ExceptionalSequence) -> None:
        self.form = seq.form
        self.vectors = [list(v) for v in seq.vectors]
        self.gram = gram_matrix(seq)
        self.blocks = list(seq.blocks)
        self.slots = list(range(len(seq)))

    def freeze(self) -> ExceptionalSequence:
        vectors = tuple(tuple(self.vectors[s]) for s in self.slots)
        return ExceptionalSequence(self.form, vectors, tuple(self.blocks))

    def braid(self, p: int, target: int) -> None:
        """Swap basis elements p and p+1, then subtract c = pairing(p, p+1)
        times the other one from the one now at ``target``.  The swap
        exchanges two slots; G follows the shear by congruence, on the
        target's row and then on its column."""
        slots = self.slots
        q = p + 1
        c = self.gram[slots[p]][slots[q]]
        slots[p], slots[q] = slots[q], slots[p]
        if c:
            t, s = slots[target], slots[p + q - target]
            for rows in (self.vectors, self.gram):
                rows[t] = [x - c * y for x, y in zip(rows[t], rows[s])]
            for row in self.gram:
                row[t] -= c * row[s]

    def move(self, block: int, direction: str) -> Move:
        """Pass ``block`` over its neighbour, element by element, then swap
        the two block sizes; the move is orthogonal when the two blocks
        pair to zero in both directions just before it."""
        blocks = self.blocks
        if direction not in ("left", "right"):
            raise ValueError(f"unknown direction {direction!r}")
        other = block - 1 if direction == "left" else block + 1
        first = min(block, other)
        if not 0 <= first < len(blocks) - 1:
            raise IndexError(f"cannot move block {block} {direction} of {len(blocks)} blocks")
        start = sum(blocks[:first])
        middle = start + blocks[first]
        end = middle + blocks[first + 1]
        orthogonal = _orthogonal(self.gram, self.slots[start:middle], self.slots[middle:end])
        # Leftward, the leftmost element goes first and meets the passed
        # block's rightmost element first; rightward, the mirror image.
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


def mutate_left(seq: ExceptionalSequence, i: int) -> ExceptionalSequence:
    """Mutate the object at position i leftward through position i-1.

    Positions (i-1, i) holding (a, b) become (b - pairing(a, b) a, a).
    Blocks partition positions and are untouched; ``apply_script``
    repartitions when moving whole blocks.
    """
    n = len(seq)
    if not (1 <= i < n):
        raise IndexError(f"left mutation needs 1 <= i < {n}, got {i}")
    replay = _Replay(seq)
    replay.braid(i - 1, i - 1)
    return replay.freeze()


def mutate_right(seq: ExceptionalSequence, i: int) -> ExceptionalSequence:
    """Mutate the object at position i rightward through position i+1.

    Positions (i, i+1) holding (a, b) become (b, a - pairing(a, b) b).
    Inverse of ``mutate_left`` on semiorthogonal adjacent pairs.
    """
    n = len(seq)
    if not (0 <= i < n - 1):
        raise IndexError(f"right mutation needs 0 <= i < {n - 1}, got {i}")
    replay = _Replay(seq)
    replay.braid(i, i + 1)
    return replay.freeze()


def move_block(seq: ExceptionalSequence, block: int, direction: str):
    """One block move; returns (new sequence, move record).

    A leftward move passes every element of the block over the whole
    previous block (each moving element is mutated through the passed
    block's rightmost element first); blocks then swap sizes.
    """
    replay = _Replay(seq)
    move = replay.move(block, direction)
    return replay.freeze(), move


def apply_script(seq: ExceptionalSequence, moves):
    """Apply a list of block moves ({"block": int, "direction": "left"|"right"}).

    Returns (final sequence, move records); each record carries whether
    the two blocks were fully orthogonal at the time of the move (in
    which case the move is a pure transposition of classes).
    """
    replay = _Replay(seq)
    records = [replay.move(m["block"], m["direction"]) for m in moves]
    return replay.freeze(), records


def parse_script(text: str) -> list[dict]:
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ValueError("mutation script is nested too deeply") from exc
    if not isinstance(doc, list):
        raise ValueError("mutation script must be a JSON array of moves")
    for move in doc:
        if not isinstance(move, dict) or "block" not in move or "direction" not in move:
            raise ValueError(f"malformed move {move!r}")
        if not _is_int(move["block"]):
            raise ValueError(f"move block must be an integer, got {move['block']!r}")
        if move["direction"] not in ("left", "right"):
            raise ValueError(f"move direction must be 'left' or 'right', got {move['direction']!r}")
    return doc
