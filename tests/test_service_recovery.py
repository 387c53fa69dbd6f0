"""SIGKILL-mid-stream service recovery (ISSUE 9 acceptance).

A real ``repro-gepc serve`` subprocess hosts several tenants; client
threads stream operations at it; the process is SIGKILLed mid-stream
(no shutdown path runs at all).  A restarted service must recover every
tenant through strict auditing and be **bit-identical to an uncrashed
in-process twin at the durable horizon** — the per-seq twin states come
from the same :func:`repro.check.run_twin` machinery the durable fuzz
target uses.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.check import FuzzConfig, fuzz_instance, run_twin
from repro.core.gepc import GreedySolver
from repro.platform import DurablePlatform
from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceThread,
    TenantManager,
)
from repro.service.protocol import E_INTERNAL
from repro.service.server import READY_LINE
from repro.service.tenants import SPEC_FILENAME

pytestmark = pytest.mark.usefixtures("shadow_checks_from_env")

TENANTS = {
    "kappa": 11,
    "lam": 12,
    "mu": 13,
}
N_OPS = 120
SNAPSHOT_EVERY = 4
MIN_SEQ_BEFORE_KILL = 6


def spec_of(name: str) -> dict:
    return {
        "name": name,
        "kind": "meetup",
        "users": 14,
        "events": 7,
        "seed": TENANTS[name],
        "snapshot_every": SNAPSHOT_EVERY,
    }


def make_instance(name: str):
    spec = spec_of(name)
    return fuzz_instance(
        spec["seed"], FuzzConfig(n_users=spec["users"], n_events=spec["events"])
    )


def start_serve(root: Path) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root",
         str(root), "--port", "0", "--no-fsync"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = re.search(rf"{READY_LINE} [\d.]+:(\d+)", line)
    assert match, f"no readiness line from serve (got {line!r})"
    return proc, int(match.group(1))


@pytest.fixture(scope="module")
def crashed(tmp_path_factory):
    """Publish tenants, stream at them, SIGKILL mid-stream, restart."""
    root = tmp_path_factory.mktemp("service-crash")
    twin_root = tmp_path_factory.mktemp("service-twin")

    # The uncrashed in-process twins: identical spec-deterministic
    # instance, solver, and snapshot cadence; run_twin records the
    # (utility, plan-summary) pair at every sequence number, i.e. at
    # every possible durable horizon.
    twins = {}
    op_lists = {}
    for name, seed in TENANTS.items():
        platform = DurablePlatform(
            make_instance(name),
            twin_root / name,
            solver=GreedySolver(seed=seed),
            snapshot_every=SNAPSHOT_EVERY,
            fsync=False,
        )
        states, operations = run_twin(
            platform, stream_seed=seed, n_operations=N_OPS
        )
        twins[name] = states
        op_lists[name] = operations

    proc, port = start_serve(root)
    try:
        with ServiceClient("127.0.0.1", port) as client:
            for name in TENANTS:
                client.create_tenant(spec_of(name))
                client.publish(name)

        # One streaming thread per tenant, one op per frame: the wire
        # order is the serial order the twin replayed.
        def stream(name: str) -> None:
            try:
                with ServiceClient("127.0.0.1", port) as c:
                    for operation in op_lists[name]:
                        c.submit(name, [operation])
            except Exception:
                pass  # the kill severs connections mid-flight

        threads = [
            threading.Thread(target=stream, args=(name,), daemon=True)
            for name in TENANTS
        ]
        for thread in threads:
            thread.start()

        # Kill only once every tenant provably has ops in its WAL, so
        # the crash is genuinely mid-stream for all of them.
        deadline = time.monotonic() + 60
        with ServiceClient("127.0.0.1", port) as monitor:
            while time.monotonic() < deadline:
                seqs = [
                    monitor.summary(name)["seq"] for name in TENANTS
                ]
                if all(seq >= MIN_SEQ_BEFORE_KILL for seq in seqs):
                    break
                time.sleep(0.02)
            else:
                pytest.fail(f"streams too slow to kill: {seqs}")
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)

    for thread in threads:
        thread.join(timeout=30)

    # Restart over the same root: strict recovery of every tenant.
    proc2, port2 = start_serve(root)
    yield {"port": port2, "twins": twins, "ops": op_lists, "root": root}
    proc2.send_signal(signal.SIGTERM)
    assert proc2.wait(timeout=30) == 0


class TestRecoveredState:
    def test_all_tenants_recovered_published(self, crashed):
        with ServiceClient("127.0.0.1", crashed["port"]) as client:
            tenants = {t["name"]: t for t in client.tenants()}
        assert set(tenants) == set(TENANTS)
        for name, info in tenants.items():
            assert info["published"], name

    def test_crash_landed_mid_stream(self, crashed):
        with ServiceClient("127.0.0.1", crashed["port"]) as client:
            for name in TENANTS:
                seq = client.summary(name)["seq"]
                assert MIN_SEQ_BEFORE_KILL <= seq <= N_OPS

    def test_bit_identical_to_uncrashed_twin_at_horizon(self, crashed):
        with ServiceClient("127.0.0.1", crashed["port"]) as client:
            for name in TENANTS:
                summary = client.summary(name)
                horizon = summary["seq"]
                twin = crashed["twins"][name][horizon]
                assert summary["audit"]["utility"] == twin.utility, name
                assignments = tuple(
                    tuple(events)
                    for events in client.plan_summary(name)
                )
                assert assignments == twin.summary.assignments, name

    def test_recovered_state_is_auditor_clean(self, crashed):
        with ServiceClient("127.0.0.1", crashed["port"]) as client:
            for name in TENANTS:
                audit = client.summary(name)["audit"]
                assert audit["violations"] == 0, name

    def test_service_keeps_serving_after_recovery(self, crashed):
        # The WAL resumes above the horizon: the remaining twin ops
        # still apply, and the result matches the twin's final states.
        with ServiceClient("127.0.0.1", crashed["port"]) as client:
            name = "kappa"
            horizon = client.summary(name)["seq"]
            remaining = crashed["ops"][name][horizon:]
            for operation in remaining:
                result = client.submit(name, [operation])
                assert result["violations"] == 0
            final_seq = client.summary(name)["seq"]
            assert final_seq == N_OPS
            twin = crashed["twins"][name][final_seq]
            assert (
                client.summary(name)["audit"]["utility"] == twin.utility
            )
            assignments = tuple(
                tuple(events) for events in client.plan_summary(name)
            )
            assert assignments == twin.summary.assignments


class TestColdRecoveryDetails:
    def test_offline_recover_agrees_with_twin(self, crashed):
        # Belt and braces: DurablePlatform.recover directly on a tenant
        # directory (as `repro-gepc recover` would) agrees with the
        # twin too — the service layer added no state of its own.
        name = "mu"
        platform, report = DurablePlatform.recover(
            crashed["root"] / name,
            solver=GreedySolver(seed=TENANTS[name]),
            snapshot_every=SNAPSHOT_EVERY,
            fsync=False,
        )
        platform.close()
        assert report.ok
        twin = crashed["twins"][name].get(report.last_seq)
        assert twin is not None
        assert report.utility == twin.utility


def test_failed_spec_write_leaves_no_spec_and_recovery_starts(
    tmp_path, monkeypatch
):
    """A create whose ``tenant.json`` rename fails leaves no spec file,
    torn or whole, so a restart still recovers; the name is freed."""
    real_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        if Path(dst).name == SPEC_FILENAME:
            raise OSError("injected spec write failure")
        return real_replace(src, dst, *args, **kwargs)

    spec = {"name": "torn", "kind": "meetup", "users": 8, "events": 4}
    with (
        ServiceThread(tmp_path) as service,
        ServiceClient(service.host, service.port) as client,
    ):
        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(ServiceError) as err:
            client.create_tenant(spec)
        monkeypatch.undo()
        assert err.value.code == E_INTERNAL
        assert not list((tmp_path / "torn").glob(f"{SPEC_FILENAME}*"))
        assert TenantManager(tmp_path, fsync=False).recover_all() == []
        client.create_tenant(spec)

    manager = TenantManager(tmp_path, fsync=False)
    assert manager.recover_all() == [("torn", None)]
    manager.get("torn").platform.close()
