"""Built-in action specs for the worked examples.

* ``etale(n, k)``: mu_2^k on A^n, generator i flipping coordinate i.
* ``p2_example()``: mu_2^2 on P^2 negating the first two homogeneous
  coordinates independently.
* ``pn_full(n)``: mu_2^n on P^n flipping each of the first n
  coordinates.
* ``quadric(q_dim)``: mu_2^(q_dim+1) on the Fermat quadric of dimension
  q_dim, flipping each of the first q_dim+1 ambient coordinates.
"""

from __future__ import annotations

from .groups import ActionSpec, check_size, make_spec


def _flip_rows(dim: int, k: int, c: int) -> list[list[int]]:
    check_size(dim, k)  # before allocating the k x c matrix
    return [[1 if j == i else 0 for j in range(c)] for i in range(k)]


def etale(n: int, k: int) -> ActionSpec:
    if not 0 <= k <= n:
        raise ValueError(f"etale preset needs 0 <= k <= n, got k={k}, n={n}")
    return make_spec("affine", n, _flip_rows(n, k, n))


def p2_example() -> ActionSpec:
    return make_spec("projective", 2, [[1, 0, 0], [0, 1, 0]])


def pn_full(n: int) -> ActionSpec:
    if n < 1:
        raise ValueError("pn-full preset needs n >= 1")
    return make_spec("projective", n, _flip_rows(n, n, n + 1))


def quadric(q_dim: int) -> ActionSpec:
    if q_dim < 1:
        raise ValueError("quadric preset needs q_dim >= 1")
    return make_spec("fermat_quadric", q_dim, _flip_rows(q_dim, q_dim + 1, q_dim + 2))


def preset(name: str, n: int | None = None, k: int | None = None, q_dim: int | None = None) -> ActionSpec:
    """Resolve a preset by CLI name."""
    if name == "etale":
        if n is None or k is None:
            raise ValueError("etale preset needs --n and --k")
        return etale(n, k)
    if name == "p2-example":
        return p2_example()
    if name == "pn-full":
        if n is None:
            raise ValueError("pn-full preset needs --n")
        return pn_full(n)
    if name == "quadric":
        if q_dim is None:
            raise ValueError("quadric preset needs --q-dim")
        return quadric(q_dim)
    raise ValueError(f"unknown preset {name!r}")
