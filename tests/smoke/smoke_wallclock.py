"""Wall-clock smoke: the fast path must stay interactive.

The fast path exists to keep the simulator usable from a terminal; this
script holds a coarse host wall-clock budget on a full-handshake
loopback session so a regression that silently disables a fast backend
fails fast.  The absolute bound allows slow shared CI runners; the
fast-vs-faithful ratio catches a disabled backend regardless of machine
speed.  A second ratio does the same for whole-buffer 3DES-CBC
decryption: it runs bitsliced over the whole buffer, while encryption is
serial and goes block by block, so decryption must stay far ahead.

Run via ``make smoke-wallclock`` (CI) or directly::

    PYTHONPATH=src python tests/smoke/smoke_wallclock.py

Not collected by pytest (the tier-1 gate pins modeled numbers; this one
intentionally measures the host) -- it is a plain script with asserts.
"""

import time

from repro import runtime
from repro.crypto.des import TripleDES
from repro.crypto.modes import CBC
from repro.ssl.loopback import make_server_identity, run_session


def best_time(fn, n: int) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def best_of(key, cert, n: int) -> float:
    return best_time(lambda: run_session(b"", key=key, cert=cert), n)


def cbc_3des_seconds() -> tuple:
    """Best-of-3 (encrypt, decrypt) seconds for a 16 KB 3DES-CBC buffer."""
    cipher, iv = TripleDES(bytes(range(24))), bytes(8)
    data = bytes(range(256)) * 64
    ct = CBC(cipher, iv).encrypt(data)
    assert CBC(cipher, iv).decrypt(ct) == data
    return (best_time(lambda: CBC(cipher, iv).encrypt(data), 3),
            best_time(lambda: CBC(cipher, iv).decrypt(ct), 3))


def main() -> None:
    key, cert = make_server_identity()
    run_session(b"", key=key, cert=cert)  # warm caches
    fast = best_of(key, cert, 5)
    with runtime.fastpath(False):
        faithful = best_of(key, cert, 2)
    print(f"handshake: fast {fast * 1e3:.1f} ms, "
          f"faithful {faithful * 1e3:.1f} ms "
          f"({faithful / fast:.1f}x)")
    # ~40 ms / ~250 ms on a dev box.
    assert fast < 2.5, f"fast-path handshake too slow: {fast:.2f}s"
    assert faithful / fast > 2.5, (
        f"fast path no longer faster: {faithful / fast:.2f}x")
    enc, dec = cbc_3des_seconds()
    print(f"3des-cbc 16 KB: encrypt {enc * 1e3:.1f} ms, "
          f"decrypt {dec * 1e3:.1f} ms ({enc / dec:.1f}x)")
    # ~9x on a 2-vCPU dev box: decryption is bitsliced over the buffer.
    assert enc / dec >= 3, (
        f"whole-buffer decryption no longer fast: {enc / dec:.2f}x")


if __name__ == "__main__":
    main()
