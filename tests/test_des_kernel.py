"""The fast DES kernels' tables, circuits and layouts, rebuilt the slow way.

The per-block fast backend holds each half spread (rotated right by one,
low 12 bits copied into bits 32-43), folds E into split subkeys and looks
up four two-S-box pair tables.  The bitsliced backend holds bit ``b`` of
every block in one plane, runs S-box circuits derived from ``_SBOXES`` and
moves blocks in and out of planes with a 64x64 bit transpose per lane.
These tests check each piece against the FIPS-derived tables
independently of the code that generates it.
"""

from __future__ import annotations

import random

import pytest

from repro import runtime
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


@pytest.mark.parametrize("i", range(8))
def test_sbox_circuit_matches_table(i):
    """Each derived circuit, run on plain 0/1 ints, is S-box ``i + 1`` on
    all 64 inputs."""
    sbox = des._SBOXES[i]
    gates, outputs = des._sbox_circuit(sbox)
    for x in range(64):
        value = {f"x{v}": x >> v & 1 for v in range(6)}
        value["ones"] = 1
        for dst, a, op, b in gates:
            value[dst] = {"&": value[a] & value[b],
                          "^": value[a] ^ value[b]}[op]
        got = sum(value[name] << (3 - o) for o, name in enumerate(outputs))
        row, col = (x >> 4) & 2 | x & 1, (x >> 1) & 0xF
        assert got == sbox[row][col], (i, x)


@pytest.mark.parametrize("lanes", [1, 3])
def test_transpose_is_its_own_inverse(lanes):
    rng = random.Random(0x7A + lanes)
    rows = [rng.getrandbits(64 * lanes) for _ in range(64)]
    once = des._transpose(list(rows), lanes)
    assert once != rows
    for g in range(lanes):
        for i in range(64):
            for p in range(0, 64, 7):
                at = 64 * g
                assert once[p] >> (at + i) & 1 == rows[i] >> (at + p) & 1
    assert des._transpose(once, lanes) == rows


def test_planes_hold_fips_bits_by_block():
    """Plane ``b``, bit ``k`` is FIPS bit ``b + 1`` of block ``k``, and the
    blocks come back out of the planes unchanged."""
    rng = random.Random(0x91A)
    nblocks, lanes = 130, 3
    data = rng.randbytes(8 * nblocks)
    planes = des._to_planes(data, lanes)
    for k in range(nblocks):
        block = int.from_bytes(data[8 * k:8 * k + 8], "big")
        for b in range(64):
            assert planes[b] >> k & 1 == block >> (63 - b) & 1
    # The padding blocks are zero.
    assert all(plane >> nblocks == 0 for plane in planes)
    assert des._from_planes(planes, lanes, len(data)) == data


def test_slice_round_matches_feistel():
    """One bitsliced round, on 64 blocks, is ``l ^ f(r, k)`` per block."""
    rng = random.Random(0xF15)
    subkey = des._key_schedule(rng.randbytes(8))[5]
    halves = [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(64)]

    def planes(values):
        return tuple(sum((v >> (31 - j) & 1) << k for k, v in enumerate(values))
                     for j in range(32))

    masks = des._slice_key(subkey, des._T64)
    out = des._slice_round(planes([left for left, _ in halves]),
                           planes([right for _, right in halves]),
                           masks, des._T64)
    assert out == planes([left ^ des._feistel(right, subkey)
                          for left, right in halves])


def test_decrypt_blocks_without_fastpath_is_the_reference_loop(monkeypatch):
    """With the fast path off, ``decrypt_blocks`` never reaches the
    bitsliced kernel, however many blocks it is given."""
    cipher = des.TripleDES(bytes(range(24)))
    data = random.Random(0xDB).randbytes(8 * (des._BITSLICE_MIN_BLOCKS + 1))
    expect = b"".join(cipher.decrypt_block(data[i:i + 8])
                      for i in range(0, len(data), 8))

    def no_bitslice(*args):
        raise AssertionError("bitsliced kernel ran with the fast path off")

    monkeypatch.setattr(des, "_bitslice_crypt", no_bitslice)
    with runtime.fastpath(False):
        assert cipher.decrypt_blocks(data) == expect
