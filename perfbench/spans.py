"""Span recorder that wraps a program's entry points from outside it.

A :class:`SpanRecorder` replaces named functions and methods with thin
wrappers that record one span per call: a label, the id of the enclosing
span (its parent), and start/end times from ``time.perf_counter``.
Spans are kept in memory in flat columns and written out when the run
ends.  :meth:`SpanRecorder.restore` puts every original attribute back.

Each wrapped target belongs to a *layer*.  A call made while a span of
the same layer is already open is folded into that span (no new span),
so a layer's time is never counted twice when one of its entry points
calls another.  Recording only happens inside a root span opened with
:meth:`SpanRecorder.root`; outside one, a wrapper costs one flag test.

Self time is a span's duration minus the durations of its direct
children; summed over a root's subtree it adds back up to the root's
duration (:func:`self_times`).
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

_NO_PARENT = -1


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.labels: list = []  # label name per code
        self.label_layer: list = []  # layer name per label code
        self.parent = array("i")
        self.label = array("H")
        self.root_of = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Counters fed by wrapper hooks, keyed by root label then name.
        self.counters: dict = {}
        self.active = False
        self._stack = [_NO_PARENT]
        self._root = _NO_PARENT
        self._root_label = ""
        self._open_layers: dict = {}
        self._patches: list = []

    # -- labels and counters -------------------------------------------------

    def _code(self, label: str, layer: str) -> int:
        if label in self.labels:
            return self.labels.index(label)
        self.labels.append(label)
        self.label_layer.append(layer)
        self._open_layers.setdefault(layer, 0)
        return len(self.labels) - 1

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` under the current root label."""
        bucket = self.counters.setdefault(self._root_label, {})
        bucket[name] = bucket.get(name, 0) + value

    # -- recording -----------------------------------------------------------

    def _open(self, code: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.label.append(code)
        self.root_of.append(self._root if self._root != _NO_PARENT else sid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, label: str):
        """Record a root span (an op, or set-up) and everything inside it."""
        if self.active:
            raise RuntimeError("root spans do not nest")
        code = self._code(label, label)
        self.active = True
        self._root_label = label
        sid = self._open(code)
        self._root = sid
        try:
            yield sid
        finally:
            self._close(sid)
            self.active = False
            self._root = _NO_PARENT

    def wrap(self, owner, name: str, label: str, layer: str, *, on_result=None, on_error=None):
        """Replace ``owner.name`` with a recording wrapper.

        ``on_result(recorder, args, kwargs, result)`` and
        ``on_error(recorder, args, kwargs, exc)`` run after the span
        closes; an exception is always re-raised.
        """
        had_own = name in vars(owner)
        original = vars(owner)[name] if had_own else getattr(owner, name)
        fn = original
        code = self._code(label, layer)
        open_layers = self._open_layers
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active or open_layers[layer]:
                return fn(*args, **kwargs)
            open_layers[layer] = 1
            sid = recorder._open(code)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder._close(sid)
                open_layers[layer] = 0
                if on_error is not None:
                    on_error(recorder, args, kwargs, exc)
                raise
            recorder._close(sid)
            open_layers[layer] = 0
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        self._patches.append((owner, name, had_own, original))
        setattr(owner, name, wrapper)
        return wrapper

    def restore(self) -> None:
        """Put back every attribute :meth:`wrap` replaced (newest first)."""
        while self._patches:
            owner, name, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- analysis ------------------------------------------------------------

    def columns(self) -> dict:
        """The spans as numpy columns (one row per span)."""
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "label": np.frombuffer(self.label, dtype=np.uint16).copy(),
            "root": np.frombuffer(self.root_of, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        """Write all spans plus the label table to an ``.npz`` file."""
        np.savez(
            path,
            labels=np.array(self.labels),
            label_layer=np.array(self.label_layer),
            **self.columns(),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    duration = end - start
    children = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    return duration - children


def layer_totals(recorder: SpanRecorder, root_label: str) -> dict:
    """Per-label and per-layer busy/self seconds and call counts over the
    subtrees of every root span labelled ``root_label``.

    Returns ``{"labels": {label: {"calls", "busy_s", "self_s"}},
    "layers": {layer: {...}}, "roots": {"count", "wall_s"}}``.
    """
    cols = recorder.columns()
    if root_label not in recorder.labels:
        return {
            "labels": {},
            "layers": {},
            "roots": {"count": 0, "wall_s": 0.0, "self_s": 0.0},
        }
    root_code = recorder.labels.index(root_label)
    own = self_times(cols["parent"], cols["start"], cols["end"])
    duration = cols["end"] - cols["start"]
    in_tree = cols["label"][cols["root"]] == root_code
    n_labels = len(recorder.labels)
    labels = cols["label"][in_tree]
    calls = np.bincount(labels, minlength=n_labels)
    busy = np.bincount(labels, weights=duration[in_tree], minlength=n_labels)
    selfs = np.bincount(labels, weights=own[in_tree], minlength=n_labels)
    per_label = {}
    per_layer: dict = {}
    for code, name in enumerate(recorder.labels):
        if code == root_code or not calls[code]:
            continue
        entry = {"calls": int(calls[code]), "busy_s": float(busy[code]), "self_s": float(selfs[code])}
        per_label[name] = entry
        layer = per_layer.setdefault(
            recorder.label_layer[code], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for key, value in entry.items():
            layer[key] += value
    return {
        "labels": per_label,
        "layers": per_layer,
        "roots": {
            "count": int(calls[root_code]),
            "wall_s": float(busy[root_code]),
            "self_s": float(selfs[root_code]),
        },
    }
