#!/usr/bin/env python3
"""Repository benchmark: host throughput, set-up time and memory of the
SSL-processing simulator on three workloads, with a traced per-layer run.

    python3 perfbench/run.py --workload handshake_1k --seed 1 --seconds 25 --trace 0

Run it from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries provenance and the modeled-signature digests.

``--trace 0`` (end-to-end metrics, tracing off): set up, then run
campaigns until ``--seconds`` of campaign time have passed.  The set-up
is repeated, the same work each time, ``SETUP_REPEATS`` times in all, at
even steps of campaign time, and the median is reported.  Times are
host seconds scaled to a reference host speed by ``hostspeed.Section``,
which samples the host's speed during each timed section.
``--trace 1`` (per-layer metrics): set up once with the tracer installed,
then run the workload's fixed number of campaigns, each one traced and
then again untraced right after it, and require identical modeled digests.
The spans go to ``.perfbench/`` as Chrome trace-event JSON (Perfetto).

Every run starts with the reference campaign (campaign 0 of seed 0), then
runs its own seed's campaigns 0, 1, 2, ...  Each campaign's modeled digest
is compared with the one recorded in ``digests.json`` for its seed and
index, when there is one; the reference campaign is recorded for every
workload, so every run checks at least one.

Modeled numbers (cycles, instructions, wire bytes) are checked, never
reported as metrics: they are the paper's result and must not move.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Section

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KNOBS = ("REPRO_FASTPATH", "REPRO_EVENTS", "REPRO_PARALLEL")
SETUP_REPEATS = 5
TRACE_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
REFERENCE_SEED = 0


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (no subprocess,
    and no walking up into some enclosing repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, shell_knobs: dict) -> dict:
    from repro import runtime
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(),
        "seed": seed,
        "knobs_in_shell": shell_knobs,
        "knobs_in_force": {"REPRO_FASTPATH": runtime.fastpath_enabled(),
                           "REPRO_EVENTS": runtime.events_enabled(),
                           "REPRO_PARALLEL": runtime.parallel_processes()},
    }


def campaign_plan(workload):
    """The campaigns of a run, in order, as ``(workload, index)``: the
    reference campaign, then the run's own campaigns 0, 1, 2, ..."""
    yield type(workload)(REFERENCE_SEED), 0
    for index in itertools.count():
        yield workload, index


def recorded_digests() -> dict:
    """``{workload: {seed: [digest of campaign 0, 1, ...]}}``."""
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def check_digests(name: str, outcomes, recorded: dict) -> None:
    """Compare each campaign's modeled digest with the recorded one for its
    seed and index; a campaign with no record is not compared."""
    for outcome in outcomes:
        seed, index = outcome.campaign
        known = recorded.get(name, {}).get(str(seed), [])
        if index < len(known) and known[index] != outcome.digest:
            outcome.errors.append(
                f"seed {seed} campaign {index}: modeled digest "
                f"{outcome.digest}, recorded {known[index]}")


def digests_by_seed(outcomes) -> dict:
    digests: dict = {}
    for outcome in outcomes:
        seed, index = outcome.campaign
        row = digests.setdefault(str(seed), [])
        if index == len(row):
            row.append(outcome.digest)
    return digests


def run_campaign(workload, keys, index: int, sample_host: bool = False):
    """Build and run campaign ``index``; returns (wall seconds, scaled
    seconds, outcome).  Only with ``sample_host`` does the host-speed
    probe run and the two times differ.
    Input generation and the output checks stay outside the clock.

    Each campaign starts as a fresh process would: a fresh default
    profiler (charges made outside any activated profiler pile up there
    for the life of the process) and no garbage left for the collector
    from the campaign before."""
    from repro import perf
    requests = workload.inputs(index)
    perf.reset_default()
    gc.collect()
    if not sample_host:
        start = perf_counter()
        result = workload.execute(workload.build(keys.replicas(), index),
                                  requests)
        wall = scaled = perf_counter() - start
    else:
        with Section() as timing:
            result = workload.execute(workload.build(keys.replicas(), index),
                                      requests)
        wall, scaled = timing.wall_s, timing.scaled_s
    outcome = workload.check(result, requests)
    outcome.campaign = (workload.seed, index)
    return wall, scaled, outcome


def timed_setup(workload):
    """One set-up; returns (wall seconds, scaled seconds, keys)."""
    gc.collect()
    with Section() as timing:
        keys = workload.setup()
    return timing.wall_s, timing.scaled_s, keys


def timed_run(workload, seconds: float, import_s: float):
    """Run length and the set-up spacing follow wall seconds; the metrics
    use scaled seconds.  Set-ups are spread over the run rather than done
    back to back, so their median does not hang on one spell of the
    host."""
    wall, scaled, keys = timed_setup(workload)
    setups, setups_wall = [scaled], [wall]
    elapsed, elapsed_wall, outcomes = 0.0, 0.0, []
    for campaign, index in campaign_plan(workload):
        if elapsed_wall >= seconds:
            break
        if elapsed_wall >= len(setups) * seconds / SETUP_REPEATS:
            wall, scaled, _ = timed_setup(workload)
            setups.append(scaled)
            setups_wall.append(wall)
        wall, scaled, outcome = run_campaign(campaign, keys, index,
                                             sample_host=True)
        elapsed += scaled
        elapsed_wall += wall
        outcomes.append(outcome)
    while len(setups) < SETUP_REPEATS:
        wall, scaled, _ = timed_setup(workload)
        setups.append(scaled)
        setups_wall.append(wall)
    completed = sum(o.completed for o in outcomes)
    metrics = {
        "requests_per_s": (completed / elapsed, "1/s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"campaigns": len(outcomes), "timed_s": elapsed,
            "timed_wall_s": elapsed_wall,
            "wall_requests_per_s": completed / elapsed_wall,
            "setups_s": setups, "setups_wall_s": setups_wall,
            "import_s": import_s,
            "digests": digests_by_seed(outcomes)}
    return metrics, outcomes, info


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(workload, campaigns: int, trace_path: Path = None,
               metadata: dict = None):
    """The per-layer run.  Returns (metrics, traced outcomes, info).
    With ``trace_path`` the spans are written there, with ``metadata``.

    Each campaign runs traced and then untraced right after it, so the
    two sides of ``trace.overhead_frac`` see the same host conditions."""
    from tracer import LAYERS, Tracer
    tracer = Tracer()
    tracer.install()
    try:
        keys = workload.setup()
        setup = tracer.layer_totals()
        tracer.reset()
    finally:
        tracer.uninstall()
    traced, traced_s, untraced_s = [], 0.0, 0.0
    for campaign, index in itertools.islice(campaign_plan(workload),
                                            campaigns):
        tracer.install()
        try:
            spent, _, outcome = run_campaign(campaign, keys, index)
        finally:
            tracer.uninstall()
        traced_s += spent
        traced.append(outcome)
        spent, _, plain = run_campaign(campaign, keys, index)
        untraced_s += spent
        if plain.digest != outcome.digest:
            outcome.errors.append(
                f"seed {campaign.seed} campaign {index}: modeled digest "
                f"{outcome.digest} traced vs {plain.digest} untraced")
    run = tracer.layer_totals()
    counts = {
        "private_ops": tracer.calls_of(
            "repro.crypto.rsa:RsaPrivateKey.raw_private"),
        "session_gets": tracer.calls_of("repro.ssl.session:SessionCache.get"),
        "session_puts": tracer.calls_of("repro.ssl.session:SessionCache.put"),
        "rounds": tracer.calls_of(
            "repro.webserver.events:TxnScheduler.run_round"),
        "session_hits": tracer.session_hits,
        "batch_ops": tracer.batch_ops,
    }

    completed = sum(o.completed for o in traced)
    offered_conns = sum(o.connections for o in traced)
    handshakes = sum(o.handshakes for o in traced)
    resumed = sum(o.resumed for o in traced)
    charges = run["profiler"]["calls"]
    batches = run["batch_rsa"]["calls"]
    m = {
        "keygen.calls": setup["keygen"]["calls"],
        "keygen.s": setup["keygen"]["incl_s"],
        "rand.setup_bytes": setup["rand"]["bytes"],
        "rand.setup_s": setup["rand"]["self_s"],
        "rand.bytes": run["rand"]["bytes"],
        "rsa.private_ops": counts["private_ops"],
        "batch_rsa.batches": batches,
        "batch_rsa.ops_per_batch": _ratio(counts["batch_ops"], batches),
        "des.bytes": run["des"]["bytes"],
        "rc4.bytes": run["rc4"]["bytes"],
        "hash.bytes": run["hash"]["bytes"],
        "kdf.calls": run["kdf"]["calls"],
        "record.records": run["record"]["calls"],
        "record.bytes": run["record"]["bytes"],
        "protocol.handshakes_full": handshakes - resumed,
        "protocol.handshakes_resumed": resumed,
        "session.gets": counts["session_gets"],
        "session.puts": counts["session_puts"],
        "session.hit_ratio": _ratio(counts["session_hits"],
                                    counts["session_gets"]),
        "profiler.charge_calls": charges,
        "profiler.charges_per_request": _ratio(charges, completed),
        "profiler.discarded_charge_frac": _ratio(
            charges - sum(o.server_charges for o in traced), charges),
        "sched.rounds": counts["rounds"],
        "sched.touched": sum(o.sched_touched for o in traced),
        "admission.offered": offered_conns,
        "admission.shed_frac": _ratio(
            sum(o.connections_shed for o in traced), offered_conns),
        "admission.abandon_frac": _ratio(
            sum(o.connections_abandoned for o in traced), offered_conns),
        "admission.downgraded_frac": _ratio(
            sum(o.connections_downgraded for o in traced), offered_conns),
    }
    metrics = {name: (value, _unit(name)) for name, value in m.items()}
    attributed = 0.0
    for layer in LAYERS:
        if layer == "keygen":
            continue
        self_s = run[layer]["self_s"]
        attributed += self_s
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_share"] = (self_s / traced_s, "share")
    traced_rps = completed / traced_s
    untraced_rps = completed / untraced_s
    metrics["trace.requests_per_s"] = (traced_rps, "1/s")
    metrics["trace.untraced_requests_per_s"] = (untraced_rps, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rps / untraced_rps,
                                      "share")
    metrics["trace.unattributed_share"] = (1.0 - attributed / traced_s,
                                           "share")
    info = {"campaigns": campaigns, "traced_s": traced_s,
            "untraced_s": untraced_s, "spans": len(tracer.starts),
            "digests": digests_by_seed(traced)}
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_perfetto(str(trace_path), {"workload": workload.name,
                                                **(metadata or {})})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics, traced, info


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".bytes", "setup_bytes")):
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_share")):
        return "share"
    if name.endswith(("per_batch", "per_request")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # Every run uses the defaults of the three runtime knobs, so a value
    # exported in the shell cannot skew it; the shell's values are recorded.
    shell_knobs = {k: os.environ.pop(k, None) for k in KNOBS}
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    with Section() as importing:
        from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    prov = provenance(args.seed, shell_knobs)

    if args.trace:
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, outcomes, info = traced_run(
            workload, workload.traced_campaigns, path, prov)
    else:
        metrics, outcomes, info = timed_run(workload, args.seconds,
                                            importing.scaled_s)
    check_digests(args.workload, outcomes, recorded_digests())

    errors = [e for o in outcomes for e in o.errors]
    for error in errors:
        print(f"perfbench: CHECK FAILED [{args.workload}]: {error}",
              file=sys.stderr)
    info["provenance"] = prov
    info["workload"] = args.workload
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(o.offered for o in outcomes),
        "failed": sum(o.failures for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
