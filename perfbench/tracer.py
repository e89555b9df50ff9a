"""Host-time tracer: timing shims around each layer's public entry points.

The per-layer host budget is the paper's Oprofile attribution (Tables 1-3)
applied to the machine that runs the simulation.  Attribution is by call
boundary, never by source file: the DES, MD5 and SHA-1 fast paths are
exec-compiled (``<des-fastpath>`` ...), so a file-path map would put their
time in the wrong layer.

Every entry point of :data:`LAYERS` is wrapped by a shim that records one
span (name, start, end, parent, connection id).  Spans live in flat arrays
in memory and are written out at the end as Chrome trace-event JSON, which
Perfetto reads.  ``Profiler.charge`` fires about 10^6 times per run, so the
``profiler`` layer records a count and a total time only; that time is
still subtracted from the enclosing span's self time.

Nothing under ``src/`` is changed: :meth:`Tracer.install` swaps module and
class attributes, :meth:`Tracer.uninstall` puts back exactly what was there.
"""

from __future__ import annotations

import importlib
import json
import sys
import weakref
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: layer -> public entry points, as ``module:qualname``.  Order matters only
#: for reports.  A renamed entry point fails ``resolve_entry`` (and the
#: benchmark's own tests) instead of silently dropping out of the budget.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "keygen": ("repro.crypto.rsa:generate_key",
               "repro.crypto.batch_rsa:generate_batch_keys"),
    "rand": ("repro.crypto.rand:PseudoRandom.bytes",
             "repro.crypto.rand:PseudoRandom.int_below",
             "repro.crypto.rand:PseudoRandom.odd_int"),
    "rsa": ("repro.crypto.rsa:RsaPrivateKey.decrypt",
            "repro.crypto.rsa:RsaPrivateKey.raw_private"),
    "batch_rsa": ("repro.crypto.batch_rsa:BatchRsaDecryptor.decrypt_batch",),
    "des": ("repro.crypto.modes:CBC.encrypt",
            "repro.crypto.modes:CBC.decrypt"),
    "rc4": ("repro.crypto.rc4:RC4.process",),
    "hash": ("repro.crypto.md5:MD5.update", "repro.crypto.md5:MD5.copy",
             "repro.crypto.md5:MD5.digest",
             "repro.crypto.sha1:SHA1.update", "repro.crypto.sha1:SHA1.copy",
             "repro.crypto.sha1:SHA1.digest",
             "repro.crypto.mac:Ssl3MacContext.mac",
             "repro.crypto.mac:TlsMacContext.mac",
             "repro.crypto.mac:ssl3_mac", "repro.crypto.mac:tls_mac",
             "repro.crypto.mac:hmac"),
    "kdf": ("repro.ssl.kdf:derive", "repro.ssl.kdf:master_secret",
            "repro.ssl.kdf:key_block", "repro.ssl.kdf:cert_verify_hashes",
            "repro.ssl.kdf:finished_hashes", "repro.ssl.kdf:tls_prf",
            "repro.ssl.kdf:tls_master_secret",
            "repro.ssl.kdf:tls_key_block", "repro.ssl.kdf:tls_finished"),
    "record": ("repro.ssl.record:ConnectionState.seal",
               "repro.ssl.record:ConnectionState.open"),
    "protocol": ("repro.ssl.server:SslServer.receive",
                 "repro.ssl.client:SslClient.receive"),
    "session": ("repro.ssl.session:SessionCache.get",
                "repro.ssl.session:SessionCache.put",
                "repro.ssl.session:SessionCache.remove"),
    "profiler": ("repro.perf.profiler:Profiler.charge",
                 "repro.perf.profiler:Profiler.charge_cycles"),
    "sched": ("repro.webserver.events:TxnScheduler.run_round",
              "repro.webserver.events:TxnScheduler.next_event_round"),
    "admission": ("repro.webserver.overload:AcceptQueue.begin_round",
                  "repro.webserver.overload:AcceptQueue.pop",
                  "repro.webserver.overload:DropTailPolicy.admit",
                  "repro.webserver.overload:DeadlineShedPolicy.prune",
                  "repro.webserver.overload:SuitePolicy.suites_for"),
    "driver": ("repro.webserver.simulator:WebServerSimulator.run",
               "repro.webserver.farm:ServerFarm.run"),
}

#: The layer whose calls are counted and timed in aggregate, not spanned.
AGGREGATE_LAYER = "profiler"

#: Entry points whose spans carry the connection object's id.
CONNECTION_ENTRIES = frozenset(LAYERS["protocol"])

#: Entry point -> index of the argument (after ``self``) whose ``len`` is
#: the layer's byte count.
BYTE_ARGS: Dict[str, int] = {
    "repro.crypto.modes:CBC.encrypt": 0, "repro.crypto.modes:CBC.decrypt": 0,
    "repro.crypto.rc4:RC4.process": 0,
    "repro.crypto.md5:MD5.update": 0, "repro.crypto.sha1:SHA1.update": 0,
    "repro.ssl.record:ConnectionState.seal": 1,
    "repro.ssl.record:ConnectionState.open": 1,
}

_MISSING = object()


def resolve_entry(entry: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, function)`` for ``module:qualname``; raises
    ``AttributeError``/``ImportError`` when the entry point is gone."""
    module_name, qualname = entry.split(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    function = getattr(owner, attr)
    if not callable(function):
        raise TypeError(f"{entry} is not callable")
    return owner, attr, function


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int],
               extra: Optional[Sequence[float]] = None) -> List[float]:
    """Self time of every span: its duration minus the part of it that its
    direct children cover (overlapping or touching children count once,
    and children are clipped to the parent), minus ``extra[i]`` -- time of
    aggregated calls made directly inside span ``i``."""
    children: Dict[int, List[int]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_time = end - start - covered
        if extra is not None:
            self_time -= extra[i]
        out.append(self_time)
    return out


class Tracer:
    """Records spans and per-entry counters while installed."""

    def __init__(self) -> None:
        self.entries: List[str] = [e for layer in LAYERS.values()
                                   for e in layer]
        self.layer_of: List[str] = [layer for layer, es in LAYERS.items()
                                    for _ in es]
        self.calls = [0] * len(self.entries)
        self.nbytes = [0] * len(self.entries)
        self.reset()
        self._saved: List[Tuple[object, str, object]] = []
        # Connection objects -> sequential ids, without keeping them alive.
        self._conn_ids: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self._last_conn = 0

    # -- recording ------------------------------------------------------------
    def reset(self) -> None:
        """Drop every span and counter (phase boundaries call this)."""
        self.starts = array("d")
        self.ends = array("d")
        self.extra = array("d")
        self.parents = array("l")
        self.names = array("l")
        self.conns = array("l")
        self._stack: List[int] = []
        # Cleared in place: installed shims hold these two lists.
        self.calls[:] = [0] * len(self.entries)
        self.nbytes[:] = [0] * len(self.entries)
        self.agg_time = 0.0
        self.session_hits = 0
        self.batch_ops = 0

    def _conn_id(self, obj: object) -> int:
        cid = self._conn_ids.get(obj)
        if cid is None:
            self._last_conn += 1
            cid = self._conn_ids[obj] = self._last_conn
        return cid

    def _span_shim(self, idx: int, original: Callable) -> Callable:
        entry = self.entries[idx]
        byte_arg = BYTE_ARGS.get(entry)
        is_conn = entry in CONNECTION_ENTRIES
        is_get = entry == "repro.ssl.session:SessionCache.get"
        is_batch = entry.endswith(":BatchRsaDecryptor.decrypt_batch")
        is_rand_bytes = entry == "repro.crypto.rand:PseudoRandom.bytes"
        tracer = self
        calls, nbytes = self.calls, self.nbytes

        def shim(*args, **kwargs):
            calls[idx] += 1
            if byte_arg is not None:
                nbytes[idx] += len(args[1 + byte_arg])
            elif is_rand_bytes:
                nbytes[idx] += args[1]
            elif is_batch:
                tracer.batch_ops += len(args[1])
            span = len(tracer.starts)
            stack = tracer._stack
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.names.append(idx)
            tracer.conns.append(tracer._conn_id(args[0]) if is_conn else 0)
            tracer.extra.append(0.0)
            tracer.ends.append(0.0)
            stack.append(span)
            tracer.starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.ends[span] = perf_counter()
                stack.pop()
            if is_get and result is not None:
                tracer.session_hits += 1
            return result

        return shim

    def _aggregate_shim(self, idx: int, original: Callable) -> Callable:
        tracer = self
        calls = self.calls

        def shim(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                calls[idx] += 1
                tracer.agg_time += spent
                stack = tracer._stack
                if stack:
                    tracer.extra[stack[-1]] += spent

        return shim

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point.  Module-level functions are replaced in
        every loaded ``repro`` module that imported them by name; methods
        are replaced on the class named in the entry."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for idx, entry in enumerate(self.entries):
            owner, attr, function = resolve_entry(entry)
            make = (self._aggregate_shim
                    if self.layer_of[idx] == AGGREGATE_LAYER
                    else self._span_shim)
            shim = make(idx, function)
            if isinstance(owner, type):
                self._swap(owner, attr, shim)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is function:
                        self._swap(module, key, shim)

    def _swap(self, owner: object, attr: str, shim: Callable) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, shim)

    def uninstall(self) -> None:
        """Put back every attribute exactly as :meth:`install` found it."""
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = []

    # -- results --------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, bytes, self time, and inclusive time of its
        outermost spans (a layer's spans nested in its own spans count
        once)."""
        totals = {layer: {"calls": 0, "bytes": 0, "self_s": 0.0,
                          "incl_s": 0.0} for layer in LAYERS}
        for idx, layer in enumerate(self.layer_of):
            totals[layer]["calls"] += self.calls[idx]
            totals[layer]["bytes"] += self.nbytes[idx]
        selfs = self_times(self.starts, self.ends, self.parents, self.extra)
        names, parents, layer_of = self.names, self.parents, self.layer_of
        for span, self_time in enumerate(selfs):
            layer = layer_of[names[span]]
            row = totals[layer]
            row["self_s"] += self_time
            parent = parents[span]
            if parent < 0 or layer_of[names[parent]] != layer:
                row["incl_s"] += self.ends[span] - self.starts[span]
        totals[AGGREGATE_LAYER]["self_s"] = self.agg_time
        totals[AGGREGATE_LAYER]["incl_s"] = self.agg_time
        return totals

    def calls_of(self, entry: str) -> int:
        return self.calls[self.entries.index(entry)]

    def write_perfetto(self, path: str, metadata: Dict[str, object]) -> None:
        """Write the spans as Chrome trace-event JSON (``metadata`` goes to
        ``otherData``).  Timestamps are microseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        events = []
        for span in range(len(self.starts)):
            entry = self.entries[self.names[span]]
            args = {"parent": self.parents[span], "span": span}
            if self.conns[span]:
                args["conn"] = self.conns[span]
            events.append({
                "name": entry.split(":")[1], "cat": self.layer_of[
                    self.names[span]], "ph": "X", "pid": 1, "tid": 1,
                "ts": round((self.starts[span] - origin) * 1e6, 3),
                "dur": round((self.ends[span] - self.starts[span]) * 1e6, 3),
                "args": args})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)
