"""Cipher modes of operation.

The paper's cipher suites use block ciphers in CBC mode ("one of the most
popular modes", Section 2), where each plaintext block is XORed with the
previous ciphertext block -- deliberately serializing the blocks of a
message -- and RC4 as a stream cipher.  :class:`CBC` keeps the running IV
across calls because SSLv3 chains the IV from record to record.

Only encryption is serial: each ciphertext block feeds the next block's
input.  Decryption is parallel, since plaintext block ``i`` is
``D(C_i) ^ C_(i-1)`` and every ciphertext block is already at hand.  The
fast path therefore decrypts a whole buffer with one
:meth:`BlockCipher.decrypt_blocks` call and one XOR against the buffer
shifted by a block (DES and 3DES bitslice it; see ``repro.crypto.des``).
The charges are the same either way: one block operation per block, in
order, then the per-block and per-call mode overhead.
"""

from __future__ import annotations

from typing import Protocol

from ..perf import charge, mix
from ..runtime import fastpath_enabled


class BlockCipher(Protocol):
    """Structural interface implemented by AES, DES and TripleDES."""

    name: str
    block_size: int

    def encrypt_block(self, block: bytes) -> bytes: ...

    def decrypt_block(self, block: bytes) -> bytes: ...

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt each block of ``data`` on its own, charging as
        :meth:`decrypt_block` would block by block."""
        ...


#: Per-block CBC overhead: load previous ciphertext, XOR four words (or two
#: for 64-bit blocks; the difference is noise), pointer bookkeeping.
CBC_BLOCK = mix(movl=8, xorl=4, addl=2, cmpl=1, jnz=1)

#: Per-call overhead of the mode wrapper (the EVP-style dispatch the
#: throughput numbers of Table 11 include).
MODE_CALL = mix(pushl=4, movl=10, popl=4, call=2, ret=2, cmpl=2, jnz=2)


class CBC:
    """Cipher-block chaining with persistent IV state."""

    def __init__(self, cipher: BlockCipher, iv: bytes):
        if len(iv) != cipher.block_size:
            raise ValueError(
                f"IV must be {cipher.block_size} bytes for {cipher.name}")
        self.cipher = cipher
        self.block_size = cipher.block_size
        self._iv = iv

    @property
    def iv(self) -> bytes:
        """The current chaining value."""
        return self._iv

    def encrypt(self, data: bytes) -> bytes:
        bs = self.block_size
        if len(data) % bs:
            raise ValueError("CBC input must be a whole number of blocks")
        out = bytearray()
        prev = self._iv
        enc = self.cipher.encrypt_block
        if fastpath_enabled():
            from_bytes = int.from_bytes
            for i in range(0, len(data), bs):
                block = (from_bytes(data[i:i + bs], "big")
                         ^ from_bytes(prev, "big")).to_bytes(bs, "big")
                prev = enc(block)
                out += prev
        else:
            for i in range(0, len(data), bs):
                block = bytes(a ^ b for a, b in zip(data[i:i + bs], prev))
                prev = enc(block)
                out += prev
        self._iv = prev
        nblocks = len(data) // bs
        if nblocks:
            charge(CBC_BLOCK, times=nblocks, function="cbc_encrypt")
        charge(MODE_CALL, function="cbc_encrypt")
        return bytes(out)

    def decrypt(self, data: bytes) -> bytes:
        bs = self.block_size
        if len(data) % bs:
            raise ValueError("CBC input must be a whole number of blocks")
        out = bytearray()
        prev = self._iv
        if fastpath_enabled():
            if data:
                plain = self.cipher.decrypt_blocks(data)
                out = (int.from_bytes(plain, "big")
                       ^ int.from_bytes(prev + data[:-bs], "big")
                       ).to_bytes(len(data), "big")
                prev = data[-bs:]
        else:
            dec = self.cipher.decrypt_block
            for i in range(0, len(data), bs):
                ct = data[i:i + bs]
                plain = dec(ct)
                out += bytes(a ^ b for a, b in zip(plain, prev))
                prev = ct
        self._iv = prev
        nblocks = len(data) // bs
        if nblocks:
            charge(CBC_BLOCK, times=nblocks, function="cbc_decrypt")
        charge(MODE_CALL, function="cbc_decrypt")
        return bytes(out)


def cbc_encrypt(cipher: BlockCipher, iv: bytes, data: bytes) -> bytes:
    """One-shot CBC encryption."""
    return CBC(cipher, iv).encrypt(data)


def cbc_decrypt(cipher: BlockCipher, iv: bytes, data: bytes) -> bytes:
    """One-shot CBC decryption."""
    return CBC(cipher, iv).decrypt(data)
