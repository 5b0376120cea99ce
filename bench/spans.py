"""In-memory span recorder that times medrec's layers from outside.

The tracer replaces module attributes (and one class attribute) with thin
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans live in flat arrays so that a
run with hundreds of thousands of field constructions stays small, and
they are written out once, when the run ends.  Everything is restored by
`uninstall`, so the same process can run untraced afterwards.
"""

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span named `name`."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a spanning wrapper until `uninstall`."""
        original = getattr(owner, attr)
        name_id = self._name_id(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; all spans come from one thread, so children nest.
        """
        name = np.array(self._name, dtype=np.int32)
        parent = np.array(self._parent, dtype=np.int32)
        dur = np.array(self._end) - np.array(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(total[i]),
                    "self_s": float(self_s[i])}
                for i, n in enumerate(self.names)}

    def dump(self, path) -> None:
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(self.names),
                            name=np.array(self._name, dtype=np.int32),
                            parent=np.array(self._parent, dtype=np.int32),
                            start=np.array(self._start),
                            end=np.array(self._end))
