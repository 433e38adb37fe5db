"""Shared helpers: bit manipulation, tables, RNG."""

from repro.utils.bits import (
    bit_length_signed,
    ceil_log2,
    clz,
    floor_div_pow2,
    from_twos_complement,
    get_field,
    mask,
    popcount,
    round_to_nearest_even,
    set_field,
    sign_extend,
    to_twos_complement,
)
from repro.utils.rng import as_generator, spawn
from repro.utils.table import format_cell, render_table

__all__ = [
    "bit_length_signed", "ceil_log2", "clz", "floor_div_pow2",
    "from_twos_complement", "get_field", "mask", "popcount",
    "round_to_nearest_even", "set_field", "sign_extend", "to_twos_complement",
    "as_generator", "spawn", "format_cell", "render_table",
]
