"""End-to-end metric arithmetic on fixed timings."""

import pytest

from workloads import Timings


def test_medians_over_stretches():
    t = Timings()
    # three stretches of 1.024 s of audio at 2, 3 and 2.5 times real time
    t.online = [(2.048, 1.024), (3.072, 1.024), (2.56, 1.024)]
    t.offline = [(1.5, 1.0), (1.2, 1.0), (1.4, 1.0), (9.0, 1.0)]
    t.push_ms = [list(range(1, 11)), [10.0] * 9 + [100.0], [5.0, 7.0]]
    t.late_push_ms = [3.0, 1.0, 2.0, 50.0]
    m = t.metrics()
    assert m["rtf"] == pytest.approx(2.5)
    assert m["offline_rtf"] == pytest.approx(1.45)        # the outlier call moves nothing
    assert m["push_ms.p50"] == pytest.approx(9.5)         # over all 22 pushes
    # per-stretch 90th percentiles 9.1, 19.0 and 6.8: the burst moves one of them
    assert m["push_ms.p90"] == pytest.approx(9.1)
    assert m["late_push_ms.p50"] == pytest.approx(2.5)


def test_empty_stretch_is_skipped_by_the_tail():
    t = Timings(online=[(1.0, 0.5)], offline=[(1.0, 1.0)],
                push_ms=[[], [4.0, 6.0]], late_push_ms=[4.0])
    assert t.metrics()["push_ms.p90"] == pytest.approx(5.8)
