"""Bit-level primitives for hypercube addressing.

Node addresses in a Boolean ``n``-cube are ``n``-bit integers.  Bits are
numbered 0 (least significant) through ``n - 1``; the paper calls bit
``j`` the *j-th port* of a node because flipping it reaches the
neighbour across dimension ``j``.

Every helper operates on Python ``int``.
"""

from __future__ import annotations

__all__ = [
    "bit",
    "clear_bit",
    "flip_bit",
    "hamming_distance",
    "highest_set_bit",
    "lowest_set_bit",
    "mask",
    "popcount",
    "rotate_left",
    "rotate_right",
    "set_bit",
    "to_bits",
    "from_bits",
    "bit_string",
]


def mask(n: int) -> int:
    """Return an ``n``-bit mask ``2**n - 1``.

    >>> mask(4)
    15
    """
    if n < 0:
        raise ValueError(f"mask width must be non-negative, got {n}")
    return (1 << n) - 1


def bit(x: int, j: int) -> int:
    """Return bit ``j`` of ``x`` (0 or 1)."""
    return (x >> j) & 1


def set_bit(x: int, j: int) -> int:
    """Return ``x`` with bit ``j`` set."""
    return x | (1 << j)


def clear_bit(x: int, j: int) -> int:
    """Return ``x`` with bit ``j`` cleared."""
    return x & ~(1 << j)


def flip_bit(x: int, j: int) -> int:
    """Return ``x`` with bit ``j`` complemented.

    In cube terms this is the neighbour of node ``x`` across
    dimension ``j`` (the node reached through port ``j``).
    """
    return x ^ (1 << j)


def popcount(x: int) -> int:
    """Number of one bits of ``x`` (``|x|`` in the paper).

    >>> popcount(0b1011)
    3
    """
    if x < 0:
        raise ValueError(f"popcount of a negative number is undefined, got {x}")
    return x.bit_count()


def hamming_distance(a: int, b: int) -> int:
    """Hamming distance ``|a ⊕ b|`` — the cube distance between nodes."""
    return popcount(a ^ b)


def highest_set_bit(x: int) -> int:
    """Index of the highest set bit of ``x``; ``-1`` for ``x == 0``.

    The paper's SBT construction calls this ``k``: the highest-order bit
    of the relative address that is one.
    """
    if x < 0:
        raise ValueError(f"expected a non-negative integer, got {x}")
    return x.bit_length() - 1


def lowest_set_bit(x: int) -> int:
    """Index of the lowest set bit of ``x``; ``-1`` for ``x == 0``."""
    if x < 0:
        raise ValueError(f"expected a non-negative integer, got {x}")
    if x == 0:
        return -1
    return (x & -x).bit_length() - 1


def rotate_right(x: int, steps: int, n: int) -> int:
    """Right-rotate the ``n``-bit number ``x`` by ``steps`` positions.

    This is the paper's rotation function ``R``: bit ``p`` of ``x``
    moves to position ``(p - steps) mod n``, i.e. ``R(a_{n-1} ... a_0) =
    (a_0 a_{n-1} ... a_1)`` for ``steps == 1``.

    >>> bit_string(rotate_right(0b011010, 1, 6))
    '001101'
    """
    if n <= 0:
        raise ValueError(f"word width must be positive, got {n}")
    if x >> n:
        raise ValueError(f"{x:#x} does not fit in {n} bits")
    steps %= n
    if steps == 0:
        return x
    return ((x >> steps) | (x << (n - steps))) & mask(n)


def rotate_left(x: int, steps: int, n: int) -> int:
    """Left-rotate the ``n``-bit number ``x`` by ``steps`` positions."""
    if n <= 0:
        raise ValueError(f"word width must be positive, got {n}")
    return rotate_right(x, n - (steps % n), n)


def to_bits(x: int, n: int) -> tuple[int, ...]:
    """Expand ``x`` into an ``n``-tuple ``(a_0, a_1, ..., a_{n-1})``.

    Index ``j`` of the result is bit ``j`` (LSB first).
    """
    if x >> n:
        raise ValueError(f"{x:#x} does not fit in {n} bits")
    return tuple((x >> j) & 1 for j in range(n))


def from_bits(bits_lsb_first: tuple[int, ...] | list[int]) -> int:
    """Inverse of :func:`to_bits`."""
    value = 0
    for j, b in enumerate(bits_lsb_first):
        if b not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r} at index {j}")
        value |= b << j
    return value


def bit_string(x: int, n: int) -> str:
    """Render ``x`` as the paper writes addresses: ``a_{n-1} ... a_0``.

    >>> bit_string(0b01101, 5)
    '01101'
    """
    if x >> n:
        raise ValueError(f"{x:#x} does not fit in {n} bits")
    return format(x, f"0{n}b")
