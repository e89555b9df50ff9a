"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import hostspeed
import run
import workloads
from tracer import (
    BYTE_ARGS, CONNECTION_ENTRIES, LAYERS, Tracer, resolve_entry, self_times,
)
from workloads import WORKLOADS, Outcome

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

#: Per-layer metrics that are exact counts: two traced runs with one seed
#: must agree on them to the unit.
COUNT_METRICS = ("keygen.calls", "rand.setup_bytes", "rand.bytes",
                 "rsa.private_ops", "batch_rsa.batches", "des.bytes",
                 "rc4.bytes", "hash.bytes", "kdf.calls", "record.records",
                 "record.bytes", "protocol.handshakes_full",
                 "protocol.handshakes_resumed", "session.gets",
                 "session.puts", "profiler.charge_calls", "sched.rounds",
                 "sched.touched", "admission.offered")


def test_self_time_nested_and_back_to_back_children():
    # root [0, 10] with back-to-back children a [1, 3] and b [3, 6];
    # b has a nested child c [4, 5]; root also spent 0.5 in aggregated
    # calls (profiler charges) made directly inside it.
    starts = [0.0, 1.0, 3.0, 4.0]
    ends = [10.0, 3.0, 6.0, 5.0]
    parents = [-1, 0, 0, 2]
    extra = [0.5, 0.0, 0.0, 0.0]
    assert self_times(starts, ends, parents, extra) == [4.5, 2.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    starts = [0.0, 1.0, 2.0, 9.0]
    ends = [10.0, 4.0, 5.0, 12.0]
    parents = [-1, 0, 0, 0]
    # Children cover [1, 5] and [9, 10] of the root: 5 s of 10.
    assert self_times(starts, ends, parents)[0] == 5.0


def test_probe_samples_during_a_section_and_restores_the_signal():
    def handler(signum, frame):
        pass
    previous = signal.signal(signal.SIGALRM, handler)
    try:
        with hostspeed.Section(interval_s=0.01) as timing:
            time.sleep(0.1)
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert timing.samples >= 3
    assert 0.0 < timing.probe_s < timing.wall_s
    assert timing.scaled_s == pytest.approx(
        (timing.wall_s - timing.probe_s) * timing.scale)


def test_probe_scales_a_section_shorter_than_its_interval():
    with hostspeed.Section(interval_s=10.0) as timing:
        pass
    assert timing.samples == 1 and timing.probe_s == 0.0
    assert timing.scaled_s == pytest.approx(timing.wall_s * timing.scale)


def test_every_entry_point_resolves():
    entries = [e for layer in LAYERS.values() for e in layer]
    assert len(entries) == len(set(entries))
    for entry in entries:
        owner, attr, function = resolve_entry(entry)
        assert isinstance(function, types.FunctionType), entry
    assert set(BYTE_ARGS) <= set(entries)
    assert CONNECTION_ENTRIES <= set(entries)


def test_benchmark_calls_module_entry_points_through_their_module():
    # The tracer re-binds module functions inside ``repro``; a copy bound
    # by name in the benchmark's own modules would escape it.
    for layer in LAYERS.values():
        for entry in layer:
            owner, attr, function = resolve_entry(entry)
            if isinstance(owner, type):
                continue
            for module in (run, workloads):
                assert all(value is not function
                           for value in vars(module).values()), (entry, module)


def _attribute_snapshot():
    owners = {id(resolve_entry(e)[0]): resolve_entry(e)[0]
              for layer in LAYERS.values() for e in layer}
    owners.update({id(m): m for name, m in sys.modules.items()
                   if name == "repro" or name.startswith("repro.")})
    return {key: (owner, dict(vars(owner))) for key, owner in owners.items()}


def test_uninstall_restores_module_and_class_attributes_exactly():
    before = _attribute_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        changed = sum(
            1 for owner, attrs in before.values()
            for name, value in attrs.items()
            if vars(owner).get(name) is not value)
        assert changed >= sum(len(layer) for layer in LAYERS.values())
    finally:
        tracer.uninstall()
    for owner, attrs in before.values():
        now = dict(vars(owner))
        assert now.keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)


@pytest.fixture(scope="module")
def traced_twice():
    """Two one-campaign traced runs of every workload, same seed."""
    runs = {}
    for name, cls in WORKLOADS.items():
        runs[name] = [run.traced_run(cls(7), campaigns=1) for _ in range(2)]
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly_and_digests_match(traced_twice, name):
    (m1, out1, info1), (m2, out2, info2) = traced_twice[name]
    for metric in COUNT_METRICS:
        assert m1[metric] == m2[metric], metric
    assert info1["digests"] == info2["digests"]
    run.check_digests(name, out1 + out2, run.recorded_digests())
    assert not [e for o in out1 + out2 for e in o.errors]


def test_keygen_layer_covers_identity_and_batch_keys(traced_twice):
    hs = traced_twice["handshake_1k"][0][0]
    farm = traced_twice["overload_farm"][0][0]
    assert hs["keygen.calls"][0] == 1
    assert farm["keygen.calls"][0] == 2
    for metrics in (hs, farm):
        # Set-up prime search runs inside key generation.
        assert metrics["keygen.s"][0] >= metrics["rand.setup_s"][0]


def test_reference_campaign_is_recorded_for_every_workload():
    recorded = run.recorded_digests()
    for workload in SPEC["workloads"]:
        assert recorded[workload["name"]][str(run.REFERENCE_SEED)], workload


def test_check_digests_flags_only_recorded_campaigns_that_differ():
    recorded = {"w": {"5": ["aa", "bb"]}}
    outcomes = [Outcome(offered=1, completed=1, failures=0, shed=0,
                        abandoned=0, bytes_served=0, expected_bytes=0,
                        digest=digest, handshakes=1, resumed=0,
                        server_charges=0, sched_touched=0, connections=1,
                        campaign=campaign)
                for digest, campaign in (("aa", (5, 0)), ("xx", (5, 1)),
                                         ("yy", (5, 2)), ("zz", (6, 0)))]
    run.check_digests("w", outcomes, recorded)
    assert [bool(o.errors) for o in outcomes] == [False, True, False, False]


def test_traced_run_reports_exactly_the_declared_per_layer_metrics(
        traced_twice):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced_twice.values():
        metrics = runs[0][0]
        assert {k: unit for k, (_, unit) in metrics.items()} == declared


def test_layers_the_workloads_are_chosen_for_are_exercised(traced_twice):
    hs = traced_twice["handshake_1k"][0][0]
    bulk = traced_twice["bulk_3des"][0][0]
    farm = traced_twice["overload_farm"][0][0]
    assert hs["rsa.private_ops"][0] > 0 and hs["kdf.calls"][0] > 0
    assert hs["protocol.handshakes_resumed"][0] == 0
    assert bulk["des.bytes"][0] > 10 * hs["des.bytes"][0]
    assert bulk["protocol.handshakes_resumed"][0] > 0
    for metric in ("batch_rsa.batches", "rc4.bytes", "sched.rounds",
                   "admission.downgraded_frac", "admission.abandon_frac",
                   "admission.shed_frac"):
        assert farm[metric][0] > 0, metric
        assert hs[metric][0] == 0, metric
    assert farm["admission.shed_frac"][0] < 0.5


def test_command_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "handshake_1k",
         "--seed", "3", "--seconds", "0.01", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_command_fails_when_a_recorded_digest_differs(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(BENCH.parent / "src")
    table = tmp_path / BENCH.name / "digests.json"
    recorded = json.loads(table.read_text())
    recorded["handshake_1k"][str(run.REFERENCE_SEED)] = ["0" * 16]
    table.write_text(json.dumps(recorded))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "handshake_1k", "--seed", "1", "--seconds", "0.01",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    assert "recorded 0000000000000000" in proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_command_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "handshake_1k", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
