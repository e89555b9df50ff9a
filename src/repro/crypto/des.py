"""DES and Triple-DES (FIPS 46-3), instrumented.

The paper decomposes a DES block operation into initial permutation,
16 substitution rounds, and final permutation, measuring the substitution
part at 74.7% (DES) and 89.1% (3DES, which runs 3x16 rounds between a single
IP/FP pair) -- Table 6.  Each round XORs the right half with a subkey and
performs eight 6-bit-indexed table lookups (Table 4), and the modeled
charges follow that structure whatever the host executes.

The faithful backend (``REPRO_FASTPATH=0``) executes it literally: E via
byte-indexed mask tables, the subkey XOR, and eight lookups into S-boxes
fused with the P permutation (OpenSSL's ``DES_SPtrans`` idea).  The wide
bit permutations (IP, FP, E, PC-1, PC-2) are byte-indexed mask tables
built once from the FIPS tables.

The fast backend computes the same bits with no E step.  Inside it each
32-bit half is held rotated right by one bit, with its low 12 bits copied
again into bits 32-43 (:func:`_spread`); in that layout every S-box's 6-bit
E window is a contiguous slice.  E is therefore folded into the key: each
48-bit subkey is split once, at key-schedule time, into two words whose
6-bit chunks sit on those windows (:func:`_split_subkey`).  Four
14-bit-indexed tables each fuse two S-boxes with P, stored in the same
layout (:func:`_pair_table`).  A round is then two XORs and four lookups,
and one generated straight-line function runs a whole block, all 48 rounds
of a 3DES EDE pass included (:func:`_build_kernel`).

CBC encryption is serial, each block's input waiting on the previous
ciphertext, so it runs block by block.  CBC decryption is parallel: every
``D(C_i)`` can be computed at once.  From :data:`_BITSLICE_MIN_BLOCKS`
blocks up, :meth:`~_DesBlockOp.decrypt_blocks` therefore runs Biham's
bitsliced DES (FSE 1997) on the whole buffer.  A 64x64 bit transpose per
64-bit lane turns the blocks into 64 planes, one int per bit position
holding that bit of every block; IP, E, P, FP and the Feistel swaps
become renamings of planes; the key becomes all-ones or zero masks; and
each S-box becomes a boolean circuit derived from its table at import
(:func:`_sbox_circuit`).  A round is about 1,040 whole-buffer gates,
which cost about as much for 2,000 blocks as for 96.  Every backend charges
the same lines per block, so the modeled cycles do not move.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..perf import LIBCRYPTO, Bill, charge, current, mix
from ..runtime import fastpath_enabled

# ---------------------------------------------------------------------------
# FIPS 46-3 tables (1-based bit positions, MSB = bit 1)
# ---------------------------------------------------------------------------

_IP = (
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
)

_FP = (
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
)

_E = (
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
)

_P = (
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
)

_PC1 = (
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
)

_PC2 = (
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
)

_KEY_SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)

_SBOXES = (
    # S1
    ((14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7),
     (0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8),
     (4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0),
     (15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13)),
    # S2
    ((15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10),
     (3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5),
     (0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15),
     (13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9)),
    # S3
    ((10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8),
     (13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1),
     (13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7),
     (1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12)),
    # S4
    ((7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15),
     (13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9),
     (10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4),
     (3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14)),
    # S5
    ((2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9),
     (14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6),
     (4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14),
     (11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3)),
    # S6
    ((12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11),
     (10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8),
     (9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6),
     (4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13)),
    # S7
    ((4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1),
     (13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6),
     (1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2),
     (6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12)),
    # S8
    ((13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7),
     (1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2),
     (7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8),
     (2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11)),
)


# ---------------------------------------------------------------------------
# Permutation machinery: byte-indexed mask tables
# ---------------------------------------------------------------------------

def _build_perm_tables(perm: Sequence[int], in_bits: int) -> List[List[int]]:
    """Precompute, per input byte, the output mask contributed by that byte.

    ``perm[k]`` (1-based) is the input bit that lands in output bit ``k``
    (output MSB first).  Applying the permutation is then one table lookup
    and OR per input byte.
    """
    nout = len(perm)
    nbytes = in_bits // 8
    tables: List[List[int]] = [[0] * 256 for _ in range(nbytes)]
    for out_pos, src in enumerate(perm):
        src0 = src - 1
        byte_i, bit_i = divmod(src0, 8)
        in_byte_mask = 0x80 >> bit_i
        out_mask = 1 << (nout - 1 - out_pos)
        tbl = tables[byte_i]
        for b in range(256):
            if b & in_byte_mask:
                tbl[b] |= out_mask
    return tables


def _apply_perm(tables: List[List[int]], value: int, in_bits: int) -> int:
    out = 0
    shift = in_bits - 8
    for tbl in tables:
        out |= tbl[(value >> shift) & 0xFF]
        shift -= 8
    return out


_IP_T = _build_perm_tables(_IP, 64)
_FP_T = _build_perm_tables(_FP, 64)
_E_T = _build_perm_tables(_E, 32)
_PC1_T = _build_perm_tables(_PC1, 64)
_PC2_T = _build_perm_tables(_PC2, 56)


def _build_sp_tables() -> List[List[int]]:
    """Fuse each S-box with the P permutation (DES_SPtrans equivalent).

    ``SP[i][v]`` is ``P(S_i(v) << (28 - 4*i))`` so a round's eight lookups
    OR/XOR together into the already-permuted 32-bit result.
    """
    p_tables = _build_perm_tables(_P, 32)
    sp: List[List[int]] = []
    for i, sbox in enumerate(_SBOXES):
        table = []
        for v in range(64):
            row = ((v >> 4) & 0x2) | (v & 0x1)
            col = (v >> 1) & 0xF
            placed = sbox[row][col] << (28 - 4 * i)
            table.append(_apply_perm(p_tables, placed, 32))
        sp.append(table)
    return sp


_SP = _build_sp_tables()

_M32 = 0xFFFFFFFF
_M28 = 0x0FFFFFFF

#: The four weak and twelve semi-weak DES keys (FIPS 74 / Menezes et al.,
#: the handbook the paper cites).  With a weak key, encryption equals
#: decryption; semi-weak keys come in pairs that invert each other.
#: OpenSSL's DES_set_key_checked rejects them, as does our optional check.
WEAK_KEYS = tuple(bytes.fromhex(h) for h in (
    "0101010101010101", "FEFEFEFEFEFEFEFE",
    "E0E0E0E0F1F1F1F1", "1F1F1F1F0E0E0E0E",
))
SEMI_WEAK_KEYS = tuple(bytes.fromhex(h) for h in (
    "01FE01FE01FE01FE", "FE01FE01FE01FE01",
    "1FE01FE00EF10EF1", "E01FE01FF10EF10E",
    "01E001E001F101F1", "E001E001F101F101",
    "1FFE1FFE0EFE0EFE", "FE1FFE1FFE0EFE0E",
    "011F011F010E010E", "1F011F010E010E01",
    "E0FEE0FEF1FEF1FE", "FEE0FEE0FEF1FEF1",
))


def _strip_parity(key: bytes) -> bytes:
    """Zero each byte's parity bit so weak-key comparison ignores parity."""
    return bytes(b & 0xFE for b in key)


def is_weak_key(key: bytes) -> bool:
    """True for the 4 weak and 12 semi-weak keys (parity-insensitive)."""
    if len(key) != 8:
        raise ValueError("DES key must be 8 bytes")
    stripped = _strip_parity(key)
    return any(stripped == _strip_parity(k)
               for k in WEAK_KEYS + SEMI_WEAK_KEYS)

# ---------------------------------------------------------------------------
# Instruction mixes
# ---------------------------------------------------------------------------
# Target structure (Tables 6, 11, 12): 552 instructions per 8-byte block
# (69 per byte), split ~13% IP / 75% substitution / 12% FP for single DES.

#: The initial permutation: the classic x86 IP is ~18 swap steps of
#: shift/XOR/AND/rotate on the two halves plus loads/stores.
DES_IP = mix(movl=14, xorl=24, andl=10, shrl=8, shll=4, roll=3, rorl=3,
             movb=6, pushl=2, popl=2)

#: One substitution round: expand+key XOR then eight 6-bit table lookups
#: XORed into the left half.  Per Table 4 each lookup is a shift, a mask,
#: a byte extract and the load itself; the XOR tree joins them.
DES_ROUND = mix(xorl=11.5, movb=4.5, movl=3.2, andl=3.6, shrl=1.5,
                rorl=0.8, roll=0.4, addl=0.02, pushl=0.02, popl=0.02)

#: The final permutation (inverse structure of IP).
DES_FP = mix(movl=14, xorl=24, andl=10, shrl=8, shll=4, roll=3, rorl=3,
             movb=6, pushl=2, popl=2, ret=1, call=1)

#: One round of key-schedule generation: rotate C/D, apply PC-2 via table
#: lookups, store two subkey words.
DES_KS_ROUND = mix(movl=16, andl=8, shrl=6, shll=4, orl=6, xorl=2, movb=8,
                   addl=2, cmpl=1, jnz=1)

#: PC-1 and per-call overhead of DES_set_key.
DES_KS_SETUP = mix(movl=20, andl=8, shrl=8, orl=8, movb=8, pushl=4, popl=4,
                   call=1, ret=1)

#: Per-call overhead of DES_encrypt/decrypt.
DES_CALL = mix(pushl=4, movl=10, popl=4, call=1, ret=1, cmpl=1, jnz=1)

#: The eight lookups within a round are independent, but each round's
#: E-expansion depends on the previous round's output and every lookup pays
#: load-use latency: measured CPI 0.67 versus ~0.48 at the throughput limit.
DES_STALL = 1.39


# ---------------------------------------------------------------------------
# Key schedule and block operation
# ---------------------------------------------------------------------------

def _rotl28(v: int, n: int) -> int:
    return ((v << n) | (v >> (28 - n))) & _M28


def _key_schedule(key: bytes) -> List[int]:
    """16 48-bit subkeys from an 8-byte key (parity bits ignored)."""
    k = int.from_bytes(key, "big")
    cd = _apply_perm(_PC1_T, k, 64)
    c, d = (cd >> 28) & _M28, cd & _M28
    subkeys: List[int] = []
    for shift in _KEY_SHIFTS:
        c = _rotl28(c, shift)
        d = _rotl28(d, shift)
        subkeys.append(_apply_perm(_PC2_T, (c << 28) | d, 56))
    return subkeys


def _feistel(r: int, subkey: int) -> int:
    x = _apply_perm(_E_T, r, 32) ^ subkey
    sp = _SP
    return (sp[0][(x >> 42) & 0x3F] ^ sp[1][(x >> 36) & 0x3F]
            ^ sp[2][(x >> 30) & 0x3F] ^ sp[3][(x >> 24) & 0x3F]
            ^ sp[4][(x >> 18) & 0x3F] ^ sp[5][(x >> 12) & 0x3F]
            ^ sp[6][(x >> 6) & 0x3F] ^ sp[7][x & 0x3F])


def _rounds(l: int, r: int, subkeys: Sequence[int]) -> Tuple[int, int]:
    """The faithful 16-round Feistel loop."""
    for k in subkeys:
        l, r = r, l ^ _feistel(r, k)
    return l, r


def _crypt_reference(v: int, schedules: Sequence[Sequence[int]]) -> int:
    """The faithful block operation (the ``REPRO_FASTPATH=0`` backend).

    IP, 16 rounds per schedule, FP.  Every stage ends with DES's final
    swap; between 3DES stages that swap stands in for FP followed by the
    next stage's IP, which cancel.
    """
    v = _apply_perm(_IP_T, v, 64)
    l, r = (v >> 32) & _M32, v & _M32
    for subkeys in schedules:
        l, r = _rounds(l, r, subkeys)
        l, r = r, l
    return _apply_perm(_FP_T, (l << 32) | r, 64)


# ---------------------------------------------------------------------------
# Fast path: the E-free pair-table kernel
# ---------------------------------------------------------------------------

def _spread(h: int) -> int:
    """A 32-bit half in the fast kernel's layout.

    ``h`` rotated right by one bit, with the low 12 bits of that copied
    again into bits 32-43.  E's window for S-box ``j + 1`` covers FIPS
    bits ``4j`` to ``4j + 5`` of ``h``, bit 0 meaning bit 32, so the S1 and
    S8 windows wrap.  In this layout each window is one contiguous 6-bit
    slice: S1..S7 at bit ``26 - 4j`` and S8 at bit 30, reaching into the
    copy.  The kernel reads S6 from its copy at bit 38.
    """
    h = ((h >> 1) | (h << 31)) & _M32
    return h | (h & 0xFFF) << 32


def _split_subkey(k: int) -> Tuple[int, int]:
    """Fold E into a 48-bit subkey.

    Returns ``(ku, kt)``: ``ku`` holds the S1/S3/S5/S7 chunks at bits
    26/18/10/2 and ``kt`` the S2/S4/S6/S8 chunks at bits 22/14/38/30, the
    E windows of a spread half, so ``spread(R) ^ ku`` and ``spread(R) ^ kt``
    carry all eight S-box inputs.  (Chunk ``j`` sits at bit ``42 - 6j`` of
    ``k``; each term moves one chunk.)
    """
    ku = ((k >> 16) & 0xFC000000 | (k >> 12) & 0xFC0000
          | (k >> 8) & 0xFC00 | (k >> 4) & 0xFC)
    kt = ((k >> 14) & 0xFC00000 | (k >> 10) & 0xFC000
          | (k << 26) & 0xFC000000000 | (k << 30) & 0xFC0000000)
    return ku, kt


def _flat_keys(*stages: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """The fast kernel's key argument: every round's (ku, kt), in order."""
    return tuple(w for stage in stages for pair in stage for w in pair)


def _pair_table(hi: int, lo: int) -> List[int]:
    """``SP[hi] ^ SP[lo]`` indexed by 14 bits, stored spread.

    Index bits 8-13 are S-box ``hi``'s input and bits 0-5 S-box ``lo``'s;
    bits 6-7 fall between the two windows and never change an entry, so
    the 4096 distinct values are each shared by four indices.
    Because the entries are spread, XORing one into a spread half keeps
    the layout.
    """
    a, b = _SP[hi], _SP[lo]
    pairs = [_spread(a[x] ^ b[y]) for x in range(64) for y in range(64)]
    return [pairs[(i >> 2) & 0xFC0 | i & 0x3F] for i in range(1 << 14)]


#: S1|S3, S5|S7, S2|S4 and S6|S8, in the order _build_kernel indexes them.
_PAIR_TABLES = (_pair_table(0, 2), _pair_table(4, 6),
                _pair_table(1, 3), _pair_table(5, 7))


def _build_kernel(stages: int):
    """Generate the fast block operation for 1 (DES) or 3 (3DES EDE) stages.

    ``kernel(block, keys)`` maps an 8-byte block to the 64-bit output in
    one straight-line function: IP, 16 rounds per stage, FP.  ``keys`` is
    the flat (ku, kt) sequence of every round (:func:`_flat_keys`).

    The halves live in the spread layout (:func:`_spread`): rotated right
    by one bit and partly duplicated, so every S-box's E window is a
    contiguous slice and E itself is folded into the subkeys
    (:func:`_split_subkey`).  The standard IP and FP byte tables frame
    the rounds: each half is spread after IP and rotated back, dropping
    the copy, before FP.  A round is two XORs and four pair-table lookups
    (:data:`_PAIR_TABLES`)::

        u = R ^ ku;  t = R ^ kt
        L ^= A[(u >> 18) & 0x3FFF] ^ B[(u >> 2) & 0x3FFF]
              ^ C[(t >> 14) & 0x3FFF] ^ D[t >> 30]

    ``t >> 30`` needs no mask because the layout ends at bit 43.  The
    entries are spread values, so ``L`` stays in the layout.  The Feistel
    swap is a renaming of the two halves, and so is the swap that ends each
    stage, which makes the 3DES stage boundaries free.  Bit-identical to
    :func:`_crypt_reference`.
    """
    rounds = 16 * stages
    lines = [
        "def _kernel(block, keys):",
        "    " + ", ".join(f"ku{i}, kt{i}" for i in range(rounds)) + " = keys",
        "    " + ", ".join(f"b{i}" for i in range(8)) + " = block",
        "    v = " + " | ".join(f"ip{i}[b{i}]" for i in range(8)),
        "    l = spread(v >> 32)",
        "    r = spread(v & 0xFFFFFFFF)",
    ]
    names = ["l", "r"]
    for i in range(rounds):
        L, R = names
        lines.append(f"    u = {R} ^ ku{i}")
        lines.append(f"    t = {R} ^ kt{i}")
        lines.append(f"    {L} ^= (A[(u >> 18) & 0x3FFF] ^ B[(u >> 2) & 0x3FFF]"
                     f" ^ C[(t >> 14) & 0x3FFF] ^ D[t >> 30])")
        names.reverse()          # the Feistel swap
        if i % 16 == 15:
            names.reverse()      # the swap that ends a stage
    for name in names:           # rotate back, dropping the copy
        lines.append(f"    {name} = (({name} << 1) & 0xFFFFFFFF)"
                     f" | (({name} >> 31) & 1)")
    hi, lo = names
    lines.append("    return (" + " | ".join(
        f"fp{4 * half + i}[({name} >> {24 - 8 * i}) & 0xFF]"
        for half, name in enumerate((hi, lo)) for i in range(4)) + ")")
    namespace = {
        "spread": _spread,
        **dict(zip("ABCD", _PAIR_TABLES)),
        **{f"ip{i}": t for i, t in enumerate(_IP_T)},
        **{f"fp{i}": t for i, t in enumerate(_FP_T)},
    }
    exec(compile("\n".join(lines), "<des-fastpath>", "exec"), namespace)
    return namespace["_kernel"]


# ---------------------------------------------------------------------------
# Fast path, whole buffers: the bitsliced kernel
# ---------------------------------------------------------------------------
#
# Biham's bitslice technique ("A Fast New DES Implementation in Software",
# FSE 1997): plane ``b`` is one Python int whose bit ``k`` is bit ``b`` of
# block ``k``, so each boolean gate below runs on every block at once.  The
# bit permutations (IP, E, P, FP) and the Feistel swaps are renamings of
# planes, and the S-boxes are boolean circuits derived from ``_SBOXES``.

_T64 = (1 << 64) - 1

#: Truth tables of the six S-box input bits: bit ``x`` of ``_LITERALS[v]``
#: is bit ``v`` of the 6-bit input ``x`` (bit 5 is the first bit of the
#: S-box's E window).
_LITERALS = tuple(sum(1 << x for x in range(64) if x >> v & 1)
                  for v in range(6))


def _sbox_truth_tables(sbox: Sequence[Sequence[int]]) -> List[int]:
    """The four output bits of ``sbox`` (first = most significant) as
    64-bit truth tables over the 6-bit input."""
    out = [0] * 4
    for x in range(64):
        y = sbox[(x >> 4) & 2 | x & 1][(x >> 1) & 0xF]
        for o in range(4):
            out[o] |= (y >> (3 - o) & 1) << x
    return out


def _sbox_circuit(sbox: Sequence[Sequence[int]]):
    """Derive a boolean circuit for ``sbox`` from its table.

    Returns ``(gates, outputs)``: each gate is ``(dst, a, op, b)`` with
    ``op`` ``&`` or ``^``; names ``x0``..``x5`` are the input bits (``x5``
    first in the E window), ``ones`` the constant 1 and ``t<i>`` gate
    outputs; ``outputs`` names the node of each output bit, first = most
    significant.  Each function is split on its lowest input bit ``s`` it
    depends on, into cofactors ``f0`` and ``f1`` (the Davio expansion
    ``f = f0 ^ (s & (f0 ^ f1))``), recursively; nodes with the same truth
    table are shared.
    """
    gates: List[Tuple[str, str, str, str]] = []
    nodes = {_T64: "ones"}
    nodes.update({t: f"x{v}" for v, t in enumerate(_LITERALS)})

    def gate(a: str, op: str, b: str) -> str:
        gates.append((f"t{len(gates)}", a, op, b))
        return gates[-1][0]

    def node(t: int) -> str:
        if t not in nodes:
            for v, lit in enumerate(_LITERALS):
                lo, hi = t & (_T64 ^ lit), t & lit
                f0, f1 = lo | lo << (1 << v), hi | hi >> (1 << v)
                if f0 != f1:
                    break
            m = gate(f"x{v}", "&", node(f0 ^ f1))
            nodes[t] = m if f0 == 0 else gate(node(f0), "^", m)
        return nodes[t]

    outputs = [node(t) for t in _sbox_truth_tables(sbox)]
    return gates, outputs


def _build_slice_round():
    """Generate one bitsliced Feistel round.

    ``round(l, r, k, ones)`` takes the 32 planes of each half (index ``j``
    is FIPS bit ``j + 1`` of the half), the round's 48 key masks and the
    all-ones plane, and returns the new right half ``l ^ P(S(E(r) ^ K))``.
    Key mask ``m`` is ``ones`` where E bit ``m + 1`` of the subkey is set
    and 0 where it is clear.  E and P are renamings of planes.
    """
    lines = ["def _round(l, r, k, ones):",
             "    " + ", ".join(f"l{j}" for j in range(32)) + " = l",
             "    " + ", ".join(f"r{j}" for j in range(32)) + " = r"]
    sbox_out = {}
    for i, sbox in enumerate(_SBOXES):
        gates, outputs = _sbox_circuit(sbox)
        lines += [f"    s{i}x{v} = r{_E[m] - 1} ^ k[{m}]"
                  for v in range(6) for m in [6 * i + 5 - v]]

        def ref(name: str) -> str:
            return name if name == "ones" else f"s{i}{name}"

        lines += [f"    s{i}{dst} = {ref(a)} {op} {ref(b)}"
                  for dst, a, op, b in gates]
        for o, name in enumerate(outputs):
            sbox_out[4 * i + o + 1] = f"s{i}{name}"
    lines.append("    return (" + ", ".join(
        f"l{j} ^ {sbox_out[src]}" for j, src in enumerate(_P)) + ")")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<des-bitslice>", "exec"), namespace)
    return namespace["_round"]


_slice_round = _build_slice_round()

#: Lane bit (little-endian within each 64-bit lane) of FIPS bit ``f``
#: (0-based, MSB of the block's first byte = 0).  An involution.
_LANE_BIT = tuple(8 * (f // 8) + 7 - f % 8 for f in range(64))


#: Per delta-swap distance ``j``, the lane bits whose index has bit ``j``
#: clear.
_SWAP_MASKS = tuple((j, sum(1 << p for p in range(64) if not p & j))
                    for j in (32, 16, 8, 4, 2, 1))


def _transpose(rows: List[int], lanes: int) -> List[int]:
    """Transpose 64x64 bit matrices in place, one per 64-bit lane.

    ``rows`` holds 64 ints of ``lanes`` lanes; afterwards bit ``i`` of lane
    ``g`` of row ``p`` is what bit ``p`` of lane ``g`` of row ``i`` was.
    Six rounds of delta swaps, each exchanging ``j``-bit blocks between
    rows ``j`` apart (Hacker's Delight, section 7-3).  Its own inverse.
    """
    repeat = ((1 << 64 * lanes) - 1) // _T64    # a 1 at every lane's bit 0
    for j, lane_mask in _SWAP_MASKS:
        mask = lane_mask * repeat
        for i in range(64):
            if not i & j:
                a, b = rows[i], rows[i | j]
                t = ((a >> j) ^ b) & mask
                rows[i | j] = b ^ t
                rows[i] = a ^ (t << j)
    return rows


def _to_planes(data: bytes, lanes: int) -> List[int]:
    """The 64 planes of ``data``'s blocks, zero-padded to ``64 * lanes``
    blocks: bit ``k`` of plane ``f`` is FIPS bit ``f + 1`` of block ``k``."""
    words = memoryview(data + bytes(512 * lanes - len(data))).cast("Q")
    rows = _transpose([int.from_bytes(words[i::64], "little")
                       for i in range(64)], lanes)
    return [rows[p] for p in _LANE_BIT]


def _from_planes(planes: Sequence[int], lanes: int, nbytes: int) -> bytes:
    """The first ``nbytes`` of the blocks whose planes are ``planes``."""
    rows = _transpose([planes[p] for p in _LANE_BIT], lanes)
    out = bytearray(512 * lanes)
    words = memoryview(out).cast("Q")
    for i in range(64):
        words[i::64] = memoryview(rows[i].to_bytes(8 * lanes, "little")
                                  ).cast("Q")
    return bytes(out[:nbytes])


def _slice_key(subkey: int, ones: int) -> Tuple[int, ...]:
    """The 48 key masks of :func:`_build_slice_round` for ``subkey``."""
    return tuple(ones if subkey >> (47 - m) & 1 else 0 for m in range(48))


def _bitslice_crypt(data: bytes, schedules: Sequence[Sequence[int]]) -> bytes:
    """Run every block of ``data`` through ``schedules`` (one 16-subkey
    list per stage).

    IP, 16 rounds per stage, FP, as :func:`_crypt_reference`: each stage
    ends with DES's final swap, and all of it renames planes.
    """
    lanes = -(-len(data) // 512)
    ones = (1 << 64 * lanes) - 1
    planes = _to_planes(data, lanes)
    left = tuple(planes[src - 1] for src in _IP[:32])
    right = tuple(planes[src - 1] for src in _IP[32:])
    for subkeys in schedules:
        for k in subkeys:
            left, right = right, _slice_round(left, right,
                                              _slice_key(k, ones), ones)
        left, right = right, left
    halves = left + right
    return _from_planes([halves[src - 1] for src in _FP], lanes, len(data))


#: Block count from which :meth:`_DesBlockOp.decrypt_blocks` runs the
#: bitsliced kernel.  Its cost per call is nearly flat up to thousands of
#: blocks, the interpreter's per-gate overhead dwarfing the width of the
#: ints; the pair-table kernel's grows with every block.  Measured on
#: CPython 3.11 (2-vCPU x86-64), median us a block, bitsliced against
#: pair-table: 3DES 59 vs 50 at 72 blocks, 47 vs 51 at 88, 46 vs 51 at
#: 96, 3.0 vs 47 at 2,048; single DES 18 vs 19 at 88, 18 vs 20 at 96.
_BITSLICE_MIN_BLOCKS = 96


def _block_bill(function: str, rounds: int) -> Bill:
    """The four lines a block operation charges, as one fast-path bill."""
    return Bill([(DES_IP, 1.0, function, LIBCRYPTO, DES_STALL),
                 (DES_ROUND, rounds, function, LIBCRYPTO, DES_STALL),
                 (DES_FP, 1.0, function, LIBCRYPTO, DES_STALL),
                 (DES_CALL, 1.0, function, LIBCRYPTO, 1.0)])


class _DesBlockOp:
    """The block operation DES and TripleDES share: one IP/FP pair around
    ``rounds`` substitution rounds, charged as OpenSSL's ``function``.

    ``_enc`` and ``_dec`` are the reference key schedules, one 16-subkey
    list per stage; :meth:`_set_schedules` derives each backend's keys
    from them.
    """

    block_size = 8
    name: str
    rounds: int
    _function: str
    _bill: Bill

    def _set_schedules(self, enc: Tuple[Sequence[int], ...],
                       dec: Tuple[Sequence[int], ...]) -> None:
        self._enc, self._dec = enc, dec
        split = {k: _split_subkey(k) for stage in enc for k in stage}
        self._enc_fast = _flat_keys(*([split[k] for k in s] for s in enc))
        self._dec_fast = _flat_keys(*([split[k] for k in s] for s in dec))

    def _crypt_block(self, block: bytes, schedules: Sequence[Sequence[int]],
                     keys: Tuple[int, ...]) -> bytes:
        if len(block) != 8:
            raise ValueError(f"{self.name.upper()} block must be 8 bytes")
        if fastpath_enabled():
            out = self._kernel(block, keys)
            charge(self._bill)
            return out.to_bytes(8, "big")
        out = _crypt_reference(int.from_bytes(block, "big"), schedules)
        function = self._function
        charge(DES_IP, function=function, stall=DES_STALL)
        charge(DES_ROUND, times=self.rounds, function=function,
               stall=DES_STALL)
        charge(DES_FP, function=function, stall=DES_STALL)
        charge(DES_CALL, function=function)
        return out.to_bytes(8, "big")

    def encrypt_block(self, block: bytes) -> bytes:
        return self._crypt_block(block, self._enc, self._enc_fast)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._crypt_block(block, self._dec, self._dec_fast)

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt every 8-byte block of ``data`` on its own (ECB).

        With the fast path off, or below :data:`_BITSLICE_MIN_BLOCKS`
        blocks, this is :meth:`decrypt_block` block by block.  Otherwise the
        bitsliced kernel decrypts every block at once, then the block bill
        is charged once per block, exactly what :meth:`decrypt_block`
        charges block by block.
        """
        nblocks, rest = divmod(len(data), 8)
        if rest:
            raise ValueError(
                f"{self.name.upper()} input must be a whole number of blocks")
        if nblocks < _BITSLICE_MIN_BLOCKS or not fastpath_enabled():
            return b"".join(self.decrypt_block(data[i:i + 8])
                            for i in range(0, len(data), 8))
        out = _bitslice_crypt(data, self._dec)
        bill, charge_bill = self._bill, current().charge
        for _ in range(nblocks):
            charge_bill(bill)
        return out


class DES(_DesBlockOp):
    """Single DES on 8-byte blocks."""

    name = "des"
    key_size = 8
    rounds = 16
    _function = "DES_encrypt"
    _bill = _block_bill(_function, rounds)
    _kernel = staticmethod(_build_kernel(1))

    def __init__(self, key: bytes, check_weak: bool = False):
        if len(key) != 8:
            raise ValueError("DES key must be 8 bytes")
        if check_weak and is_weak_key(key):
            raise ValueError("weak or semi-weak DES key rejected")
        subkeys = _key_schedule(key)
        self._enc_keys = subkeys
        self._set_schedules((subkeys,), (subkeys[::-1],))
        charge(DES_KS_SETUP, function="DES_set_key")
        charge(DES_KS_ROUND, times=16, function="DES_set_key")


class TripleDES(_DesBlockOp):
    """3DES in EDE mode (encrypt-decrypt-encrypt with three subkeys).

    Mirrors OpenSSL's ``DES_encrypt3``: one IP, 3x16 rounds, one FP --
    which is why the substitution share rises to ~89% (Table 6).
    """

    name = "3des"
    key_size = 24
    rounds = 48
    _function = "DES_encrypt3"
    _bill = _block_bill(_function, rounds)
    _kernel = staticmethod(_build_kernel(3))

    def __init__(self, key: bytes):
        if len(key) != 24:
            raise ValueError("3DES key must be 24 bytes (three DES keys)")
        k1 = _key_schedule(key[0:8])
        k2 = _key_schedule(key[8:16])
        k3 = _key_schedule(key[16:24])
        # EDE: encrypt with k1, decrypt with k2, encrypt with k3.
        self._set_schedules((k1, k2[::-1], k3), (k3[::-1], k2, k1[::-1]))
        charge(DES_KS_SETUP, times=3, function="DES_set_key")
        charge(DES_KS_ROUND, times=48, function="DES_set_key")
