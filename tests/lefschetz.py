"""Independent oracle for the G-invariant Euler pairing, by the Lefschetz trace.

It shares no code with ``mu2sod``: it reads the coordinate characters
(ints, bit i standing for generator i of G = mu_2^k) and each object's
``support``, ``twist`` and ``char``, and imports only the standard
library.  For E = O_{P(V_T)}(a) chi_E and F = O_{P(V_S)}(b) chi_F,

    chi^G(E, F) = (1/|G|) sum_g eps_{chi_E + chi_F}(g) tr_g,
    tr_g = sum_{u+, u-} C(n+, u+) C(n-, u-) (-1)^u+ h(p, m, b - a + u+ + u-),

where g has p plus and m minus signs on S and n+ plus and n- minus signs
off T: the Koszul complex of E has one term O(a - |U|), signed (-1)^|U|,
per set U of coordinates off T (Atiyah-Bott, "A Lefschetz fixed point
formula for elliptic complexes II", 1968).  h(p, m, e) is the trace of g
on H^*(P(V_S), O(e)): the coefficient of t^e in (1 - t)^-p (1 + t)^-m
when e >= 0, 0 when 1 - (p + m) <= e <= -1, and otherwise
(-1)^(p+m-1) (-1)^m times the coefficient of t^(-e-p-m) (Serre duality,
in the form of Stanley's "Combinatorial reciprocity theorems", 1974).

Run as a script, it checks every entry of a ``gram --json`` output
against the spec document it was made from, and exits 1 on a mismatch:

    python tests/lefschetz.py SPEC.json GRAM.json
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from functools import lru_cache
from math import comb


def _negative_binomial(p: int, j: int) -> int:
    """Coefficient of t^j in (1 - t)^-p; ``comb(-1, 0)`` raises at p = 0."""
    return comb(p + j - 1, j) if p else int(j == 0)


def _series(p: int, m: int, i: int) -> int:
    """Coefficient of t^i in (1 - t)^-p (1 + t)^-m."""
    return sum(
        _negative_binomial(p, j) * (-1) ** (i - j) * _negative_binomial(m, i - j) for j in range(i + 1)
    )


@lru_cache(maxsize=None)
def _h(p: int, m: int, e: int) -> int:
    if e >= 0:
        return _series(p, m, e)
    if e > -(p + m):
        return 0
    return (-1) ** (p + m - 1) * (-1) ** m * _series(p, m, -e - p - m)


@lru_cache(maxsize=None)
def _trace(n_plus: int, n_minus: int, p: int, m: int, e: int) -> int:
    return sum(
        comb(n_plus, u_plus) * comb(n_minus, u_minus) * (-1) ** u_plus * _h(p, m, e + u_plus + u_minus)
        for u_plus in range(n_plus + 1)
        for u_minus in range(n_minus + 1)
    )


def pairing(characters, rank: int, first, second) -> int:
    """chi^G(first, second) on the projective space whose coordinates
    carry ``characters``, for G of the given rank."""
    off = [i for i in range(len(characters)) if i not in first.support]
    total = 0
    for g in range(1 << rank):
        m = sum((characters[i] & g).bit_count() & 1 for i in second.support)
        n_minus = sum((characters[i] & g).bit_count() & 1 for i in off)
        sign = -1 if ((first.char ^ second.char) & g).bit_count() & 1 else 1
        total += sign * _trace(len(off) - n_minus, n_minus, len(second.support) - m, m, second.twist - first.twist)
    quotient, remainder = divmod(total, 1 << rank)
    if remainder:
        raise ArithmeticError(f"trace sum {total} is not divisible by |G| = {1 << rank}")
    return quotient


_Object = namedtuple("_Object", "support twist char")


def _bits(values) -> int:
    """An int from a little-endian 0/1 list."""
    return sum(bit << i for i, bit in enumerate(values))


def main(spec_path: str, gram_path: str) -> int:
    """Compare every entry of a ``gram --json`` output (projective specs
    only) with the trace pairing of its ``objects``."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(gram_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows, rank = spec["action"], spec["group_rank"]
    characters = [_bits(row[j] for row in rows) for j in range(spec["space"]["dim"] + 1)]
    objects = [_Object(o["support"], o["twist"], _bits(o["char"])) for o in doc["objects"]]
    mismatches = 0
    for i, row in enumerate(doc["matrix"]):
        for j, entry in enumerate(row):
            trace = pairing(characters, rank, objects[i], objects[j])
            if entry != trace:
                mismatches += 1
                print(f"entry ({i}, {j}): gram {entry}, trace {trace}", file=sys.stderr)
    print(f"{len(objects)} objects, {len(objects) ** 2} entries, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
