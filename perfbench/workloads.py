"""The benchmark's three workloads: key set-up, campaigns and output checks.

A run sets up once (server identity, batch keys, a first simulator or
farm), then executes *campaigns*.  Campaign ``i`` is a fresh simulator or
farm over replicas of the set-up keys, fed requests generated from
``(seed, i)`` before its clock starts, so every campaign is deterministic
on its own: two runs of campaign ``i`` with the same seed charge the same
modeled cycles no matter what ran before it in the process.  The keys
never depend on the seed, so every set-up, in every run, does the same
work, and a campaign's modeled result depends on ``(seed, i)`` alone.

* ``handshake_1k`` -- the paper's Table 1 regime: 1 KB requests, a full
  DES-CBC3-SHA handshake each with a 1024-bit non-CRT key, one connection
  at a time (closed loop, one client; the simulator's sequential path).
* ``bulk_3des`` -- the Figure 2 / B2B regime: 8-32 KB responses over
  keep-alive connections from two clients that always offer their cached
  session, two connections in flight (the concurrent round loop).
* ``overload_farm`` -- a 2-worker shared-cache farm with batch RSA under
  an adversarial open loop on the virtual clock (Pareto arrivals, a flash
  crowd, hello and mid-key-exchange floods, renegotiation storms),
  deadline-shedding admission and a DES->RC4 suite downgrade policy.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import perf
from repro.crypto import batch_rsa
from repro.crypto.batch_rsa import BatchRsaKeySet
from repro.crypto.rand import PseudoRandom
from repro.crypto.rsa import RsaPrivateKey
from repro.perf.baseline import canonical_json
from repro.ssl.ciphersuites import DES_CBC3_SHA, RC4_MD5
from repro.ssl.loopback import make_server_identity
from repro.ssl.x509 import Certificate
from repro.webserver import (
    ABANDON_HELLO, ABANDON_MID_KX, SHARED, DeadlineShedPolicy, ServerFarm,
    SuitePolicy, WebServerSimulator,
)
from repro.webserver.workload import Request


@dataclass
class Keys:
    """Everything key generation produces for one set-up."""

    key: RsaPrivateKey
    cert: Certificate
    batch: Optional[BatchRsaKeySet] = None

    def replicas(self) -> "Keys":
        """Same key material, fresh blinding state (a campaign's copy)."""
        batch = (BatchRsaKeySet([m.replica() for m in self.batch.members])
                 if self.batch is not None else None)
        return Keys(self.key.replica(), self.cert, batch)


class Stream:
    """A pre-generated request list in the shape the simulator reads."""

    #: The simulator's sequential path serves only plain streams; the two
    #: simulator workloads generate nothing else.
    adversarial = False

    def __init__(self, requests: List[Request]):
        self._requests = requests

    def requests(self, count: int):
        return iter(self._requests[:count])


@dataclass
class Outcome:
    """What one campaign did, as read back from the program's results."""

    offered: int
    completed: int
    failures: int
    shed: int
    abandoned: int
    bytes_served: int
    expected_bytes: int
    #: sha256 prefix over every server profile's total cycles, instruction
    #: total, region breakdown, plus wire bytes: the modeled signature.
    digest: str
    handshakes: int
    resumed: int
    #: Sum of server-side ``FunctionStats.calls``: the charges that reach
    #: a profiler the result keeps.
    server_charges: int
    sched_touched: int
    connections: int
    connections_shed: int = 0
    connections_abandoned: int = 0
    connections_downgraded: int = 0
    #: ``(seed, index)`` of the campaign, set by whoever ran it.
    campaign: Tuple[int, int] = (0, 0)
    errors: List[str] = field(default_factory=list)


def modeled_digest(profilers: List[perf.Profiler], wire_bytes: int) -> str:
    signature = {
        "wire_bytes": wire_bytes,
        "profiles": [{
            "cycles": p.total_cycles(),
            "instructions": p.total_instructions(),
            "regions": {node.path() or "<root>": node.exclusive_cycles
                        for node in p.root.walk()},
        } for p in profilers]}
    return hashlib.sha256(canonical_json(signature).encode()).hexdigest()[:16]


def _server_charges(profilers: List[perf.Profiler]) -> int:
    return sum(fs.calls for p in profilers for fs in p.functions.values())


class Workload:
    """One workload: how to set up, run and check a campaign."""

    name = ""
    #: Campaigns in a traced run (fixed, so per-layer counts are exact).
    traced_campaigns = 1
    #: Connections in flight: 1 takes the simulator's sequential path.
    concurrency = 1
    requests_per_connection = 1

    def __init__(self, seed: int):
        self.seed = seed

    def tag(self, *parts: object) -> bytes:
        """A seed for campaign inputs: derived from the run's seed."""
        return self.key_tag(self.seed, *parts)

    def key_tag(self, *parts: object) -> bytes:
        """A seed for set-up key generation: the same in every run."""
        return "-".join(["perfbench", self.name, *map(str, parts)]).encode()

    def make_keys(self) -> Keys:
        key, cert = make_server_identity(1024,
                                         seed=self.key_tag("identity"))
        return Keys(key, cert)

    def setup(self) -> Keys:
        """Generate keys and build a first simulator or farm from them;
        the build warms the keys' lazy state (Montgomery contexts)."""
        keys = self.make_keys()
        self.build(keys, 0)
        return keys

    def build(self, keys: Keys, index: int):
        return WebServerSimulator(suite=DES_CBC3_SHA, key=keys.key,
                                  cert=keys.cert, use_crt=False,
                                  seed=self.tag("sim", index))

    def inputs(self, index: int) -> List[Request]:
        raise NotImplementedError

    def execute(self, engine, requests: List[Request]):
        return engine.run(Stream(requests), len(requests),
                          requests_per_connection=self.requests_per_connection,
                          concurrency=self.concurrency)

    def check(self, result, requests: List[Request]) -> Outcome:
        """Read a simulator result back and check it against its inputs."""
        prof = [result.profiler]
        out = Outcome(
            offered=len(requests), completed=result.requests_completed,
            failures=result.failures, shed=0,
            abandoned=result.requests_abandoned,
            bytes_served=result.bytes_served,
            expected_bytes=sum(r.size_bytes for r in requests),
            digest=modeled_digest(prof, result.wire_bytes),
            handshakes=len(result.handshake_latencies),
            resumed=result.resumed_handshakes,
            server_charges=_server_charges(prof),
            sched_touched=(result.scheduler or {}).get("touched", 0),
            connections=-(-len(requests) // self.requests_per_connection))
        if out.failures:
            out.errors.append(f"{out.failures} failed requests")
        self._check_accounting(out)
        return out

    @staticmethod
    def _check_accounting(out: Outcome) -> None:
        total = out.completed + out.shed + out.abandoned + out.failures
        if total != out.offered:
            out.errors.append(f"completed+shed+abandoned+failed = {total}, "
                              f"offered {out.offered}")
        if out.bytes_served != out.expected_bytes:
            out.errors.append(f"served {out.bytes_served} bytes, workload "
                              f"asked for {out.expected_bytes}")


class Handshake1k(Workload):
    name = "handshake_1k"
    traced_campaigns = 12
    REQUESTS = 8

    def inputs(self, index: int) -> List[Request]:
        return [Request(path=f"/s{self.seed}/c{index}/r{i}.html",
                        size_bytes=1024) for i in range(self.REQUESTS)]

    def check(self, result, requests: List[Request]) -> Outcome:
        out = super().check(result, requests)
        if out.resumed or out.handshakes != len(requests):
            out.errors.append(f"{out.handshakes} handshakes ({out.resumed} "
                              f"resumed) for {len(requests)} requests")
        return out


class Bulk3des(Workload):
    name = "bulk_3des"
    traced_campaigns = 2
    concurrency = 2
    requests_per_connection = 2
    CLIENTS = 2
    #: Every campaign serves each size equally often, in a seeded order,
    #: so its bulk volume (and host work) does not depend on the seed.
    SIZES = (8192, 16384, 24576, 32768)
    PER_SIZE = 3

    def inputs(self, index: int) -> List[Request]:
        sizes = list(self.SIZES) * self.PER_SIZE
        random.Random(self.tag("sizes", index)).shuffle(sizes)
        return [Request(path=f"/s{self.seed}/c{index}/r{i}.bin",
                        size_bytes=size, resumable=True,
                        client_id=(i // self.requests_per_connection)
                        % self.CLIENTS)
                for i, size in enumerate(sizes)]


class OverloadFarm(Workload):
    name = "overload_farm"
    traced_campaigns = 4
    SIZE = 2048
    CLIENTS = 6
    #: Connections per campaign by behaviour.  Every campaign has exactly
    #: this mix and the same multiset of inter-arrival gaps; the seed only
    #: orders them, so a run's host work does not hinge on how many
    #: floods or storms the seed happened to draw.
    MIX = {"plain": 28, ABANDON_HELLO: 4, ABANDON_MID_KX: 4, "reneg": 4}
    RENEGOTIATIONS = 2
    #: Mean inter-arrival gap in scheduling rounds; gaps are the quantiles
    #: of a Pareto(alpha=2) law with this mean.  Connections in the flash
    #: window arrive ``FLASH_FACTOR`` times faster.
    MEAN_GAP = 12.0
    FLASH = (16, 32)
    FLASH_FACTOR = 4

    def make_keys(self) -> Keys:
        key, cert = make_server_identity(512,
                                         seed=self.key_tag("identity"))
        # Called through its module, so the tracer's shim sees the call.
        batch = batch_rsa.generate_batch_keys(512, 4, rng=PseudoRandom(
            self.key_tag("batch")))
        return Keys(key, cert, batch)

    def build(self, keys: Keys, index: int):
        return ServerFarm(
            2, topology=SHARED, key=keys.key, cert=keys.cert, use_crt=False,
            seed=self.tag("farm", index), key_set=keys.batch,
            admission=DeadlineShedPolicy(max_queue=4, deadline_rounds=10),
            suite_policy=SuitePolicy(primary=DES_CBC3_SHA, downgrade=RC4_MD5,
                                     queue_high=2),
            client_suites=(DES_CBC3_SHA, RC4_MD5))

    def inputs(self, index: int) -> List[Request]:
        rng = random.Random(self.tag("traffic", index))
        kinds = [k for k, count in self.MIX.items() for _ in range(count)]
        n = len(kinds)
        gaps = [int(self.MEAN_GAP * (1.0 / math.sqrt((k + 0.5) / n) - 1.0))
                for k in range(n)]
        clients = [k % self.CLIENTS for k in range(n)]
        resumable = [k % 2 == 0 for k in range(n)]
        for column in (kinds, gaps, clients, resumable):
            rng.shuffle(column)
        requests, at = [], 0
        for i, kind in enumerate(kinds):
            flash = self.FLASH[0] <= i < self.FLASH[1]
            at += gaps[i] // self.FLASH_FACTOR if flash else gaps[i]
            flood = kind in (ABANDON_HELLO, ABANDON_MID_KX)
            requests.append(Request(
                path=f"/s{self.seed}/c{index}/r{i}.html", size_bytes=self.SIZE,
                resumable=resumable[i] and not flood, client_id=clients[i],
                arrival_round=at, abandon=kind if flood else None,
                renegotiations=(self.RENEGOTIATIONS if kind == "reneg"
                                else 0)))
        return requests

    def execute(self, engine, requests: List[Request]):
        return engine.run(Stream(requests), len(requests),
                          concurrency_per_worker=2, parallel=0)

    def check(self, result, requests: List[Request]) -> Outcome:
        profs = [r.profiler for r in result.results]
        out = Outcome(
            offered=len(requests), completed=result.requests_completed,
            failures=result.failures, shed=result.requests_shed,
            abandoned=result.requests_abandoned,
            bytes_served=result.bytes_served,
            expected_bytes=self.SIZE * result.requests_completed,
            digest=modeled_digest(profs, result.wire_bytes),
            handshakes=result.completed_handshakes,
            resumed=result.resumed_handshakes,
            server_charges=_server_charges(profs),
            sched_touched=sum((r.scheduler or {}).get("touched", 0)
                              for r in result.results),
            connections=result.offered_connections,
            connections_shed=result.connections_shed,
            connections_abandoned=result.handshakes_abandoned,
            connections_downgraded=result.connections_downgraded)
        if result.backend != "serial":
            out.errors.append(f"farm ran on the {result.backend} backend")
        if out.failures:
            out.errors.append(f"{out.failures} failed requests")
        self._check_accounting(out)
        return out


WORKLOADS: Dict[str, type] = {w.name: w for w in
                              (Handshake1k, Bulk3des, OverloadFarm)}
