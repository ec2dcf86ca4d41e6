"""Bit-level substrate: addressing, Gray codes, necklaces.

These are the combinatorial primitives the paper's tree constructions
are defined in terms of (§2 *Notation and Definitions*).
"""

from repro.bits.gray import (
    gray_code,
    gray_decode,
    gray_rank,
    gray_sequence,
    hamiltonian_path,
    transition_sequence,
)
from repro.bits.necklaces import (
    base,
    canonical_rotation,
    count_cyclic,
    count_necklaces,
    generator_set,
    is_cyclic,
    necklace_representatives,
    period,
)
from repro.bits.ops import (
    bit,
    bit_string,
    clear_bit,
    flip_bit,
    from_bits,
    hamming_distance,
    highest_set_bit,
    lowest_set_bit,
    mask,
    popcount,
    rotate_left,
    rotate_right,
    set_bit,
    to_bits,
)

__all__ = [
    "bit",
    "bit_string",
    "clear_bit",
    "flip_bit",
    "from_bits",
    "hamming_distance",
    "highest_set_bit",
    "lowest_set_bit",
    "mask",
    "popcount",
    "rotate_left",
    "rotate_right",
    "set_bit",
    "to_bits",
    "gray_code",
    "gray_decode",
    "gray_rank",
    "gray_sequence",
    "hamiltonian_path",
    "transition_sequence",
    "base",
    "canonical_rotation",
    "count_cyclic",
    "count_necklaces",
    "generator_set",
    "is_cyclic",
    "necklace_representatives",
    "period",
]
