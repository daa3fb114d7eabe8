"""Span recorder: self-time arithmetic, layer folding, hooks, restore."""

import statistics
import time
import types

import numpy as np
import pytest

from perfbench import layers
from perfbench.spans import SpanRecorder, layer_totals, self_times


def test_self_time_is_duration_minus_children():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == end[0] - start[0]


class Widget:
    def work(self, n):
        return helper(n)


def helper(n):
    if n < 0:
        raise ValueError("negative")
    return n * 2


class Base:
    def ping(self):
        return "base"


class Child(Base):
    pass


def _toy_module():
    module = types.ModuleType("toy")
    module.helper = helper
    return module


def test_spans_nest_fold_and_sum_to_root_wall():
    toy = _toy_module()
    rec = SpanRecorder()
    rec.wrap(Widget, "work", "outer.work", "outer")
    rec.wrap(toy, "helper", "inner.helper", "inner")
    rec.wrap(toy, "helper", "inner.helper", "inner")  # second wrap folds into the first
    widget = Widget()
    with rec.root("op"):
        assert widget.work(3) == 6  # module-global helper: not the patched attr
        assert toy.helper(4) == 8
    cols = rec.columns()
    names = [rec.labels[code] for code in cols["label"]]
    assert names == ["op", "outer.work", "inner.helper"]
    assert cols["parent"].tolist() == [-1, 0, 0]
    totals = layer_totals(rec, "op")
    accounted = sum(v["self_s"] for v in totals["layers"].values()) + totals["roots"]["self_s"]
    assert accounted == pytest.approx(totals["roots"]["wall_s"], rel=1e-12)
    rec.restore()


def test_recording_only_inside_a_root_and_errors_reraise():
    toy = _toy_module()
    rec = SpanRecorder()
    failures = []
    rec.wrap(toy, "helper", "inner.helper", "inner",
             on_error=lambda r, a, k, exc: failures.append(exc))
    assert toy.helper(1) == 2
    assert len(rec.start) == 0
    with rec.root("op"):
        with pytest.raises(ValueError):
            toy.helper(-1)
    assert len(failures) == 1 and len(rec.start) == 2
    assert rec._stack == [-1]
    rec.restore()


def test_restore_puts_back_own_and_inherited_attributes():
    toy = _toy_module()
    original_work = vars(Widget)["work"]
    rec = SpanRecorder()
    rec.wrap(Widget, "work", "w", "w")
    rec.wrap(Child, "ping", "p", "p")  # inherited: wrapper lands on Child only
    rec.wrap(toy, "helper", "h", "h")
    assert Widget.work is not original_work and "ping" in vars(Child)
    rec.restore()
    assert vars(Widget)["work"] is original_work
    assert "ping" not in vars(Child) and Child().ping() == "base"
    assert toy.helper is helper


def test_install_wraps_and_restores_every_repro_target():
    before = {}
    for _, _, owner_path, attr, _, _ in layers.TARGETS:
        owner = layers.resolve_owner(owner_path)
        before[(owner_path, attr)] = (owner, vars(owner).get(attr))
    rec = SpanRecorder()
    layers.install(rec)
    for (owner_path, attr), (owner, original) in before.items():
        assert vars(owner)[attr] is not original, (owner_path, attr)
    rec.restore()
    for (owner_path, attr), (owner, original) in before.items():
        assert vars(owner).get(attr) is original, (owner_path, attr)


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_probe_samples_inside_blocks_only_and_carries_its_countdown():
    from perfbench import hostspeed

    probe = hostspeed.HostProbe(time.process_time)
    with probe:
        _spin(6.5 * hostspeed.INTERVAL_S)
    inside = len(probe.samples)
    assert 5 <= inside <= 7 and min(probe.samples) > 0.0
    assert probe.probe_s == pytest.approx(sum(probe.samples))
    _spin(3 * hostspeed.INTERVAL_S)
    assert len(probe.samples) == inside
    for _ in range(4):  # four blocks of 0.4 intervals: the countdown carries over
        with probe:
            _spin(0.4 * hostspeed.INTERVAL_S)
    assert len(probe.samples) >= inside + 1
    assert probe.factor() == statistics.median(probe.samples) / hostspeed.NOMINAL_S


def test_host_probe_skips_a_signal_that_lands_inside_a_probe(monkeypatch):
    from perfbench import hostspeed

    # An interval far shorter than one probe: every probe is interrupted.
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 1e-4)
    probe = hostspeed.HostProbe(time.process_time)
    with probe:
        _spin(0.2)
    assert probe.samples
    assert probe.probe_s == pytest.approx(sum(probe.samples))


def test_nominal_times_scales_each_window_by_its_own_median(monkeypatch):
    from perfbench import hostspeed

    monkeypatch.setattr(hostspeed, "WINDOW_SAMPLES", 2)
    monkeypatch.setattr(hostspeed, "NOMINAL_S", 1.0)
    # Windows: ops 0-1 (samples 2, 2: host twice as slow), then ops 2-4
    # (one full window; op 4 joins it: the median of 4, 4 and 9 is 4).
    samples = [[2.0], [2.0], [4.0, 4.0], [], [9.0]]
    times = [2.0, 4.0, 8.0, 4.0, 4.0]
    assert hostspeed.nominal_times(times, samples, 7.0) == [1.0, 2.0, 2.0, 1.0, 1.0]
    assert hostspeed.nominal_times([3.0, 6.0], [[], []], 3.0) == [1.0, 2.0]
