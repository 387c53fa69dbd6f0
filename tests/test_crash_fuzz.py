"""The durable fuzz target's crash matrix (``repro-gepc fuzz --durable``).

The generic clean/deterministic/aggregate cases run for every target in
``tests/test_check_fuzz.py`` (``TestDurableSeeds``).
"""

from repro.check import FuzzConfig, fuzz, run_fuzz
from repro.platform.durable import CRASH_POINTS

FAST = FuzzConfig(operations=10, n_users=16, n_events=8)


class TestSeedMatrix:
    def test_every_point_and_tear_covered(self):
        reports = run_fuzz([0], FAST, "durable").reports
        covered = {(r.stats.point, r.stats.tear_tail) for r in reports}
        assert covered == {
            (point, tear) for point in CRASH_POINTS for tear in (False, True)
        }

    def test_torn_tails_are_truncated(self):
        reports = run_fuzz([1], FAST, "durable").reports
        torn = [
            r.stats for r in reports
            if r.stats.tear_tail and r.stats.point != "snapshot"
        ]
        assert torn
        assert all(stats.truncated_records >= 1 for stats in torn)


class TestConfig:
    def test_defaults_are_fuzz_sized(self):
        assert FuzzConfig().operations > 0
        assert fuzz.DURABLE_FSYNC is False
        # Several snapshots land inside every scenario's stream.
        assert fuzz.DURABLE_SNAPSHOT_EVERY < FuzzConfig().operations
