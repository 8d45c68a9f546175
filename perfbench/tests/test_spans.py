"""Span recording and self-time arithmetic."""

import pytest

from spans import Tracer, covered_length, self_times


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_length([], 0, 10) == 0
    assert covered_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert covered_length([(0, 10), (2, 3)], 0, 10) == 10


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["push", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.inner", 2.0, 3.5, 1, None],   # inside a: counts against a, not push
        ["b", 6.0, 7.0, 0, None],
        ["other", 20.0, 21.0, -1, None],
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0, 1.0])


def test_tracer_records_nesting_and_meta():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2,
                        before=lambda args, kwargs: args[0],
                        after=lambda args, meta, result: (meta, result))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x + 1))
    assert outer(3) == 14
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.spans[1][4] == (3, 6) and tracer.spans[2][4] == (4, 8)
    for s in tracer.spans:
        assert s[2] >= s[1]
    assert tracer.spans[0][1] <= tracer.spans[1][1] <= tracer.spans[2][2] <= tracer.spans[0][2]


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[0][2] > 0 and tracer.spans[1][3] == -1


def test_serial_is_stable_per_object():
    class State:
        pass

    tracer = Tracer()
    a, b = State(), State()
    assert tracer.serial(a) == 0 and tracer.serial(b) == 1 and tracer.serial(a) == 0

