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

Cost model.  A sequence carries G, computed once at construction (it is
B itself for the identity basis), so a pairing is a lookup and an
elementary mutation costs O(N).  A script runs its block moves, and
their elementary steps, on one mutable working copy of (vectors, G) and
freezes it once, O(N^2); a single ``move_block`` call thaws and freezes
once.
The final checks never read the carried G.  ``is_semiorthogonal``
recomputes V B V^T from the form and the vectors as two products that
skip the zeros of V, and ``determinant`` is Bareiss fraction-free
elimination that only rescales, or leaves alone, a row with no entry in
the pivot column.  With nnz nonzero entries per vector row, as in the
sparse vectors that ``mutate`` and ``sod`` produce, both cost about
O(N^2 nnz); on dense vectors they are O(N^3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def _block_bounds(blocks: tuple[int, ...]) -> list[tuple[int, int]]:
    out, start = [], 0
    for size in blocks:
        out.append((start, start + size))
        start += size
    return out


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def _pairing_matrix(form: Matrix, vectors: Matrix) -> Matrix:
    """V B V^T from scratch, as V (V B^T)^T: row j of V B^T is B v_j."""
    form_vectors = _product(vectors, tuple(zip(*form)))
    return tuple(map(tuple, _product(vectors, tuple(zip(*form_vectors)))))


@dataclass(frozen=True)
class ExceptionalSequence:
    form: Matrix
    vectors: Matrix
    blocks: tuple[int, ...]
    # Pairing matrix V B V^T.  Callers leave it out and it is computed at
    # construction; a working copy passes the matrix it carried.
    gram: Matrix | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.form)
        if any(len(row) != n for row in self.form):
            raise ValueError("bilinear form must be square")
        if len(self.vectors) != n or any(len(v) != n for v in self.vectors):
            raise ValueError("need N lattice vectors of length N")
        if sum(self.blocks) != n or any(b <= 0 for b in self.blocks):
            raise ValueError("blocks must be a partition of the positions")
        if self.gram is None:
            gram = self.form if self.vectors == _identity(n) else _pairing_matrix(self.form, self.vectors)
            object.__setattr__(self, "gram", gram)

    def __len__(self) -> int:
        return len(self.vectors)

    def block_bounds(self) -> list[tuple[int, int]]:
        """Half-open position ranges of the blocks."""
        return _block_bounds(self.blocks)

    def to_dict(self) -> dict:
        return {
            "form": [list(r) for r in self.form],
            "vectors": [list(v) for v in self.vectors],
            "blocks": list(self.blocks),
        }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(value, name: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
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
    """Standard-basis sequence on a given form; one block per position
    unless a block partition is supplied."""
    n = len(form)
    if blocks is None:
        blocks = (1,) * n
    return ExceptionalSequence(tuple(tuple(r) for r in form), _identity(n), tuple(blocks))


def pairing(seq: ExceptionalSequence, i: int, j: int) -> int:
    """v_i^T B v_j (0-based positions), read from the carried matrix."""
    n = len(seq)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"positions ({i}, {j}) out of range for N={n}")
    return seq.gram[i][j]


def gram_matrix(seq: ExceptionalSequence) -> list[list[int]]:
    """V B V^T recomputed from the form and the vectors; the carried
    matrix is not read."""
    return [list(r) for r in _pairing_matrix(seq.form, seq.vectors)]


def is_semiorthogonal(seq: ExceptionalSequence) -> bool:
    """pairing(i, i) = 1 for all i and pairing(i, j) = 0 for i > j,
    checked on a recomputed pairing matrix."""
    m = gram_matrix(seq)
    return all(row[i] == 1 and not any(row[:i]) for i, row in enumerate(m))


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


class _Working:
    """Mutable copy of a sequence: its vectors, pairing matrix and blocks.

    ``mutate_left``, ``mutate_right`` and ``move_block`` given a frozen
    sequence thaw it into one of these, work on it and freeze the result;
    given a working copy, they update it in place and return it.  So a
    script runs all of its moves on one copy and freezes once.
    """

    def __init__(self, seq: ExceptionalSequence) -> None:
        self.form, self.blocks = seq.form, seq.blocks
        self.vectors = [list(v) for v in seq.vectors]
        self.gram = [list(r) for r in seq.gram]

    def __len__(self) -> int:
        return len(self.vectors)

    def block_bounds(self) -> list[tuple[int, int]]:
        return _block_bounds(self.blocks)

    def freeze(self) -> ExceptionalSequence:
        return ExceptionalSequence(
            self.form, tuple(map(tuple, self.vectors)), self.blocks, tuple(map(tuple, self.gram))
        )


def _thaw(seq) -> _Working:
    return seq if isinstance(seq, _Working) else _Working(seq)


def _result(seq, work: _Working):
    """The caller's own working copy, or a frozen copy of a new one."""
    return work if work is seq else work.freeze()


def _braid(work: _Working, p: int, target: int, c: int) -> None:
    """Swap basis elements p and p+1, then subtract c times the other one
    from the one now at ``target``.  G follows by congruence: each step
    acts on rows p, p+1, then on columns p, p+1."""
    q = p + 1
    source = p + q - target
    vectors, gram = work.vectors, work.gram
    for rows in (vectors, gram):
        rows[p], rows[q] = rows[q], rows[p]
    for row in gram:
        row[p], row[q] = row[q], row[p]
    if c:
        for rows in (vectors, gram):
            rows[target] = [x - c * y for x, y in zip(rows[target], rows[source])]
        for row in gram:
            row[target] -= c * row[source]


def _elementary(seq, p: int, target: int):
    """One braid move on positions (p, p+1)."""
    work = _thaw(seq)
    _braid(work, p, target, pairing(work, p, p + 1))
    return _result(seq, work)


def mutate_left(seq: ExceptionalSequence, i: int) -> ExceptionalSequence:
    """Mutate the object at position i leftward through position i-1.

    Positions (i-1, i) holding (a, b) become (b - pairing(a, b) a, a).
    Blocks partition positions and are untouched; ``apply_script``
    repartitions when moving whole blocks.
    """
    n = len(seq)
    if not (1 <= i < n):
        raise IndexError(f"left mutation needs 1 <= i < {n}, got {i}")
    return _elementary(seq, i - 1, i - 1)


def mutate_right(seq: ExceptionalSequence, i: int) -> ExceptionalSequence:
    """Mutate the object at position i rightward through position i+1.

    Positions (i, i+1) holding (a, b) become (b, a - pairing(a, b) b).
    Inverse of ``mutate_left`` on semiorthogonal adjacent pairs.
    """
    n = len(seq)
    if not (0 <= i < n - 1):
        raise IndexError(f"right mutation needs 0 <= i < {n - 1}, got {i}")
    return _elementary(seq, i, i + 1)


@dataclass(frozen=True)
class MoveRecord:
    block: int
    direction: str
    orthogonal: bool


def blocks_orthogonal(seq: ExceptionalSequence, left: int, right: int) -> bool:
    """Whether two blocks pair to zero in both directions."""
    bounds = seq.block_bounds()
    (ls, le), (rs, re) = bounds[left], bounds[right]
    g = seq.gram
    return not any(any(g[i][rs:re]) for i in range(ls, le)) and not any(
        any(g[j][ls:le]) for j in range(rs, re)
    )


def move_block(seq: ExceptionalSequence, block: int, direction: str):
    """One block move; returns (new sequence, move record).

    A leftward move passes every element of the block over the whole
    previous block (each moving element is mutated through the passed
    block's rightmost element first); blocks then swap sizes.
    """
    nblocks = len(seq.blocks)
    if direction not in ("left", "right"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "left":
        if not (1 <= block < nblocks):
            raise IndexError(f"cannot move block {block} left of {nblocks} blocks")
        other = block - 1
    else:
        if not (0 <= block < nblocks - 1):
            raise IndexError(f"cannot move block {block} right of {nblocks} blocks")
        other = block + 1
    record = MoveRecord(block, direction, blocks_orthogonal(seq, min(block, other), max(block, other)))

    work = _thaw(seq)
    bounds = work.block_bounds()
    size = work.blocks[block]
    size_other = work.blocks[other]
    if direction == "left":
        prev_start = bounds[other][0]
        for j in range(size):
            pos = prev_start + size_other + j
            for _ in range(size_other):
                mutate_left(work, pos)
                pos -= 1
    else:
        start = bounds[block][0]
        for j in range(size):
            pos = start + size - 1 - j  # rightmost unmoved element
            for _ in range(size_other):
                mutate_right(work, pos)
                pos += 1
    blocks = list(work.blocks)
    blocks[other], blocks[block] = blocks[block], blocks[other]
    work.blocks = tuple(blocks)
    return _result(seq, work), record


def apply_script(seq: ExceptionalSequence, moves):
    """Apply a list of block moves ({"block": int, "direction": "left"|"right"}).

    Returns (final sequence, move records); each record carries whether
    the two blocks were fully orthogonal at the time of the move (in
    which case the move is a pure transposition of classes).
    """
    work = _Working(seq)
    records = []
    for move in moves:
        if isinstance(move, dict):
            block, direction = move["block"], move["direction"]
        else:
            block, direction = move
        records.append(move_block(work, block, direction)[1])
    return work.freeze(), records


def parse_script(text: str) -> list[dict]:
    doc = json.loads(text)
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
