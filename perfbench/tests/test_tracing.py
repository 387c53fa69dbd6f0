import pytest

from repro.core.iep import engine
from tracing import SpanIndex, Tracer, _Patches, install, rung_table, self_time


def _span(span_id, name, start, end, parent=None, op=0):
    return [span_id, name, op, start, end, parent, {}]


def test_self_time_subtracts_the_union_of_children():
    parent = _span(1, "a", 0.0, 10.0)
    children = [_span(2, "b", 1.0, 4.0, 1), _span(3, "c", 3.0, 5.0, 1),
                _span(4, "d", 8.0, 12.0, 1)]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)


def test_rung_table_flags_a_hole():
    spans = [_span(1, "rung", 0.0, 10.0), _span(2, "layer", 0.0, 6.0, 1)]
    (row,) = rung_table(SpanIndex(spans), [0], [("rung", 0.1)])
    assert row["remainder_ms"] == pytest.approx(4000.0)
    assert not row["ok"]


def test_spans_nest_and_share_the_op():
    tracer = Tracer()
    with tracer.op(7), tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert inner[5] == outer[0] and inner[2] == outer[2] == 7


def test_install_wraps_and_undo_restores():
    original = engine.IEPEngine.apply
    undo = install(Tracer())
    try:
        assert engine.IEPEngine.apply is not original
    finally:
        undo()
    assert engine.IEPEngine.apply is original


def test_a_missing_function_fails_loudly():
    with pytest.raises(AttributeError, match="renamed or deleted"):
        _Patches().wrap(Tracer(), engine, "no_such_repair", "iep.repair")
