#!/usr/bin/env python3
"""Regenerates `EXP_TAB` in crates/math/src/simd.rs.

The table is the one ARM's optimized-routines `exp` uses and glibc >= 2.28
ships as `__exp_data.tab` (N = 128): for k in 0..N, with H[k] the double
nearest 2^(k/N) and T[k] the double nearest 2^(k/N)/H[k] - 1,

    tab[2k]     = bits(T[k])
    tab[2k + 1] = bits(H[k]) - (k << 52) / N

Both are rounded from 80-digit decimal values, which reproduces every
entry glibc ships. Usage: python3 scripts/exp_table.py > table.rs, then
paste the array over `EXP_TAB`.
"""
import struct
from decimal import Decimal, getcontext

getcontext().prec = 80
N = 128


def bits(value):
    return struct.unpack("<Q", struct.pack("<d", value))[0]


print(f"const EXP_TAB: [u64; {2 * N}] = [")
for k in range(N):
    exact = Decimal(2) ** (Decimal(k) / Decimal(N))
    head = float(exact)
    tail = float((exact - Decimal(head)) / Decimal(head))
    sbits = (bits(head) - (k << 52) // N) % 2**64
    print(f"    0x{bits(tail):016x}, 0x{sbits:016x},")
print("];")
