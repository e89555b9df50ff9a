"""The fast DES kernel's tables and key split, rebuilt the slow way.

The fast backend holds each half spread (rotated right by one, low 12 bits
copied into bits 32-43), folds E into split subkeys and looks up four
two-S-box pair tables.  These tests rebuild each piece from the FIPS-derived
``_SP`` and ``_E_T`` tables independently of the code that generates it.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import des

M32 = 0xFFFFFFFF

#: (hi, lo) S-box indices of each pair table, in ``_PAIR_TABLES`` order.
PAIRS = ((0, 2), (4, 6), (1, 3), (5, 7))

#: Bit offset of each S-box's chunk: S1/S3/S5/S7 in ku, S2/S4/S6/S8 in kt.
KU_AT = {0: 26, 2: 18, 4: 10, 6: 2}
KT_AT = {1: 22, 3: 14, 5: 38, 7: 30}


def rotl1(v: int) -> int:
    return ((v << 1) | (v >> 31)) & M32


@pytest.mark.parametrize("n", range(4))
def test_pair_table_matches_sp(n):
    table = des._PAIR_TABLES[n]
    hi, lo = PAIRS[n]
    assert len(table) == 1 << 14
    for i, entry in enumerate(table):
        # Index bits 6-7 are don't-care.
        assert entry == table[i & ~0xC0]
        low = entry & M32
        assert rotl1(low) == des._SP[hi][i >> 8] ^ des._SP[lo][i & 0x3F]
        # Bits 32-43 repeat the low copy's bits 0-11; nothing above.
        assert entry >> 32 == low & 0xFFF


def test_split_subkey_reassembles_schedule():
    rng = random.Random(0x5B1)
    key = bytes(rng.randrange(256) for _ in range(8))
    for k in des._key_schedule(key):
        ku, kt = des._split_subkey(k)
        chunks = {j: (ku >> at) & 0x3F for j, at in KU_AT.items()}
        chunks.update({j: (kt >> at) & 0x3F for j, at in KT_AT.items()})
        assert sum(c << (42 - 6 * j) for j, c in chunks.items()) == k
        # The words carry nothing but their four chunks.
        assert ku == sum(chunks[j] << at for j, at in KU_AT.items())
        assert kt == sum(chunks[j] << at for j, at in KT_AT.items())


def test_spread_half_exposes_every_e_window():
    rng = random.Random(0xE)
    at = {**KU_AT, **KT_AT}
    for r in [0, M32, 1, 1 << 31] + [rng.getrandbits(32) for _ in range(200)]:
        e = des._apply_perm(des._E_T, r, 32)
        spread = des._spread(r)
        for j in range(8):
            assert (spread >> at[j]) & 0x3F == (e >> (42 - 6 * j)) & 0x3F
