"""32-bit Rabin fingerprinting.

The data loader "fingerprints every tuple of the tables in the two snapshots
to a unique integer. We use 32Bits Rabin fingerprinting method [18]" (§4.2).

A Rabin fingerprint treats the input as a polynomial over GF(2) and reduces
it modulo a fixed irreducible polynomial of degree 32; two byte strings get
the same fingerprint iff they are congruent mod P (collisions are possible
but astronomically unlikely at table scale).

The implementation consumes a 32-bit word per step instead of a byte.  With
``v`` the running residue and ``w`` the next big-endian word, one step is
``v * x^32 + w mod P``; ``v * x^32`` splits over the four bytes of ``v``, so
four byte-indexed tables ``T_k[b] = b * x^(32 + 8k) mod P`` (``T_0`` is the
classic byte shift table) reduce it with four lookups.  The input is first
left-padded with zero bytes to a multiple of four: leading zeros are a zero
high-order polynomial term, so the fingerprint is the one the byte-at-a-time
loop computes on the unpadded input.
"""

from __future__ import annotations

import struct
from typing import Sequence, Tuple

# x^32 + x^7 + x^3 + x^2 + 1 — an irreducible polynomial over GF(2).
# Represented without the leading x^32 term (it is implicit in the modulus).
IRREDUCIBLE_POLY = 0x0000008D
_DEGREE = 32
_MASK = (1 << _DEGREE) - 1


def _build_shift_table() -> Tuple[int, ...]:
    """table[b] = (b << 32) mod P for every byte value b."""
    table = []
    for byte in range(256):
        value = byte
        for _ in range(_DEGREE):
            carry = value >> 31
            value = (value << 1) & _MASK
            if carry:
                value ^= IRREDUCIBLE_POLY
        table.append(value)
    return tuple(table)


def _times_x8(table: Tuple[int, ...]) -> Tuple[int, ...]:
    """Every entry of ``table`` multiplied by x^8, mod P."""
    return tuple(
        ((value << 8) & _MASK) ^ _SHIFT_TABLE[value >> 24] for value in table
    )


_SHIFT_TABLE = _build_shift_table()
_T1 = _times_x8(_SHIFT_TABLE)
_T2 = _times_x8(_T1)
_T3 = _times_x8(_T2)
# Zero bytes that left-pad an input of length n to a multiple of four.
_PADDING = (b"", b"\0\0\0", b"\0\0", b"\0")


def fingerprint_bytes(data: bytes) -> int:
    """The 32-bit Rabin fingerprint of a byte string."""
    length = len(data)
    t0, t1, t2, t3 = _SHIFT_TABLE, _T1, _T2, _T3
    value = 0
    for word in struct.unpack(
        f">{(length + 3) >> 2}I", _PADDING[length & 3] + data
    ):
        value = (
            t3[value >> 24]
            ^ t2[value >> 16 & 255]
            ^ t1[value >> 8 & 255]
            ^ t0[value & 255]
            ^ word
        )
    return value


def fingerprint_tuple(row: Sequence[object]) -> int:
    """Fingerprint one relational tuple.

    Values are rendered with an unambiguous, type-tagged encoding so that
    e.g. ``(1, "2")`` and ``("1", 2)`` fingerprint differently.
    """
    return fingerprint_bytes(
        "".join(
            [
                "N|" if value is None else f"{type(value).__name__}:{value!r}|"
                for value in row
            ]
        ).encode("utf-8")
    )
