"""Necklaces (generator sets), periods, and the BST *base* function.

The Balanced Spanning Tree assigns each node to a subtree according to
the rotational equivalence class (necklace) of its relative address:

* ``period(i, n)`` — least ``p > 0`` with ``R^p(i) == i``; a number is
  *cyclic* when its period is smaller than ``n``.
* ``base(i, n)`` — the minimum number of right rotations after which the
  rotated value is minimal over all rotations.  Node ``i`` (relative to
  the source) belongs to subtree ``base(i)``.

Note on the paper's worked example: the paper states
``base((011010)) = 3`` but its own formal definition — which we follow —
gives 1 (the minimal rotation of ``011010`` is ``001101 = 13``, reached
after one right rotation).  The definition used here reproduces the
paper's Table 5 exactly for all ``n`` in 2..20, as well as all the
structural properties of §4.1 (see the tests and DESIGN.md §2).
"""

from __future__ import annotations

from math import gcd

from repro.bits.ops import rotate_right

__all__ = [
    "period",
    "is_cyclic",
    "base",
    "canonical_rotation",
    "generator_set",
    "necklace_representatives",
    "count_necklaces",
    "count_cyclic",
]


def period(i: int, n: int) -> int:
    """Least ``p > 0`` such that right-rotating ``i`` by ``p`` is a fixpoint.

    The period always divides ``n``.

    >>> period(0b011011, 6)
    3
    >>> period(0b011010, 6)
    6
    """
    _check(i, n)
    for p in _divisors(n):
        if rotate_right(i, p, n) == i:
            return p
    raise AssertionError("unreachable: period(n) divides n")


def is_cyclic(i: int, n: int) -> bool:
    """True when ``i`` has period smaller than ``n`` (a degenerate necklace)."""
    return period(i, n) < n


def base(i: int, n: int) -> int:
    """Subtree index of node ``i`` in a BST: the first minimizing rotation.

    ``base(i)`` is the least ``j`` such that ``R^j(i) <= R^l(i)`` for
    every ``l``.  For ``i == 0`` it is 0 (the root is outside all
    subtrees; callers special-case it).

    >>> base(0b110110, 6)
    1
    """
    _check(i, n)
    best_j = 0
    best_v = i
    v = i
    top = n - 1
    for j in range(1, n):
        v = (v >> 1) | ((v & 1) << top)  # rotate_right(v, 1, n)
        if v < best_v:
            best_v = v
            best_j = j
    return best_j


def canonical_rotation(i: int, n: int) -> int:
    """Minimal value among all rotations of ``i`` (the necklace representative)."""
    _check(i, n)
    return rotate_right(i, base(i, n), n)


def generator_set(i: int, n: int) -> tuple[int, ...]:
    """All distinct rotations of ``i`` — its generator set (necklace).

    The tuple has ``period(i, n)`` elements and starts with ``i``.
    """
    _check(i, n)
    out = [i]
    v = rotate_right(i, 1, n)
    while v != i:
        out.append(v)
        v = rotate_right(v, 1, n)
    return tuple(out)


def necklace_representatives(n: int) -> list[int]:
    """Canonical representatives of every ``n``-bit necklace, ascending.

    Enumerated directly (an ``O(N)`` filter); fine for the cube sizes
    this library simulates (``n <= ~22``).
    """
    if n <= 0:
        raise ValueError(f"word width must be positive, got {n}")
    return [i for i in range(1 << n) if canonical_rotation(i, n) == i]


def count_necklaces(n: int) -> int:
    """Number of binary necklaces of length ``n`` (Burnside's lemma).

    ``(1/n) * sum over d | n of phi(d) * 2^(n/d)``.  The maximum BST
    subtree size is ``count_necklaces(n) - 1`` (all necklaces except the
    all-zeros one, which is the root) — this is what Table 5 tabulates.
    """
    if n <= 0:
        raise ValueError(f"word width must be positive, got {n}")
    return sum(_euler_phi(d) * (1 << (n // d)) for d in _divisors(n)) // n


def count_cyclic(n: int) -> int:
    """Number of cyclic (period < n) ``n``-bit numbers, including 0."""
    if n <= 0:
        raise ValueError(f"word width must be positive, got {n}")
    total = 0
    for p in _divisors(n):
        if p < n:
            total += _count_exact_period(p)
    return total


def _count_exact_period(p: int) -> int:
    """Number of binary strings of length ``p`` with period exactly ``p``."""
    total = 1 << p
    for d in _divisors(p):
        if d < p:
            total -= _count_exact_period(d)
    return total


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _check(i: int, n: int) -> None:
    if n <= 0:
        raise ValueError(f"word width must be positive, got {n}")
    if i < 0 or i >> n:
        raise ValueError(f"{i} is not an {n}-bit value")
