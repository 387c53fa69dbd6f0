from collections import Counter

from opgen import KINDS, OpGenerator
from repro.core.gepc import GreedySolver
from repro.datasets import make_city
from repro.platform import EBSNPlatform


def _stream(seed, count=200):
    return OpGenerator(make_city("beijing"), seed).stream(count)


def test_same_seed_gives_the_same_stream():
    assert _stream(3) == _stream(3)


def test_other_seed_gives_another_stream():
    assert _stream(3) != _stream(4)


def test_kinds_come_in_balanced_blocks():
    counts = Counter(type(op).__name__ for op in _stream(5, 8 * 25))
    assert counts == {kind: 25 for kind in KINDS}


def test_every_op_is_accepted_in_order():
    instance = make_city("beijing")
    platform = EBSNPlatform(instance, solver=GreedySolver(seed=0))
    platform.publish_plans()
    for operation in OpGenerator(instance, 11).stream(160):
        platform.submit(operation)  # raises if the engine rejects it
    assert platform.rejected_count == 0
    assert platform.audit()["violations"] == 0
