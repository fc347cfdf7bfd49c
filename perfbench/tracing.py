"""Span tracing installed from outside the package.

A Tracer replaces public functions and methods of erasurelab with wrappers
that record one span per call: an id, the id of the enclosing span, a name,
the phase the benchmark set, and start and end on the monotonic clock in
nanoseconds. Spans stay in memory, six int64 words each, until the run ends.
`uninstall` puts every original object back.

Only `plr_empirical(workers=2)` calls wrapped functions from worker threads.
A span opened on a thread with no open span of its own takes the innermost
open span of the main thread as its parent, which is the `plr_empirical`
call that started the workers.
"""
from __future__ import annotations

import itertools
import threading
import time
from array import array

NO_PARENT = -1
FIELDS = 6  # id, parent, name, phase, start_ns, end_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.phase = self.name_id("")
        self.lookups: list[tuple[int, int]] = []  # (phase, distinct masks in one batch)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object, bool]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_phase(self, name: str) -> None:
        self.phase = self.name_id(name)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else NO_PARENT
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, nid, t0, t1) -> None:
        stack.pop()
        # one extend call per span keeps the six words together across threads
        self.spans.extend((sid, parent, nid, self.phase, t0, t1))

    def _wrapper(self, fn, name: str):
        nid = self.name_id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, nid, t0, clock())

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        # an inherited method is shadowed on the subclass; uninstall deletes the shadow
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        self._patches.append((owner, attr, getattr(owner, attr), inherited))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr, a module function or a class method, by a
        traced wrapper."""
        self._patch(owner, attr, self._wrapper(getattr(owner, attr), name))

    def wrap_counting_unique(self, owner, attr: str, name: str, unique) -> None:
        """Like wrap, for a function that returns an array of erasure masks:
        afterwards the number of distinct masks is counted with `unique` in a
        sibling span named 'trace.unique', so that counting is not charged to
        the caller's self time."""
        traced = self._wrapper(getattr(owner, attr), name)
        nid = self.name_id("trace.unique")
        clock = time.perf_counter_ns

        def counting(*args, **kwargs):
            masks = traced(*args, **kwargs)
            stack, sid, parent = self._open()
            t0 = clock()
            try:
                self.lookups.append((self.phase, int(unique(masks).size)))
            finally:
                self._close(stack, sid, parent, nid, t0, clock())
            return masks

        self._patch(owner, attr, counting)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)


def install(tracer: Tracer) -> None:
    """Wrap the public functions the per-layer metrics are built from."""
    import numpy as np

    from erasurelab import analytics, fountain, gf2, gf256, multicast, polar, rng

    tracer.wrap_counting_unique(rng, "erasure_masks", "rng.erasure_masks", np.unique)
    tracer.wrap(rng, "bits", "rng.bits")
    tracer.wrap(gf2, "reduce_echelon", "gf2.reduce_echelon")
    tracer.wrap(gf2, "reduce_augmented", "gf2.reduce_augmented")
    tracer.wrap(gf256.Gf256Matrix, "invert", "gf256.Gf256Matrix.invert")
    tracer.wrap(gf256, "build_mds", "gf256.build_mds")
    for cls, family in ((gf256.MdsCode, "mds"), (fountain.FountainCode, "fountain"),
                        (polar.PolarCodec, "polar")):
        for method in ("encode", "decode"):
            tracer.wrap(cls, method, f"codec.{method}.{family}")
        tracer.wrap(cls, "unrecovered_sources", f"oracle.{family}")
    tracer.wrap(fountain.FountainCode, "parity_mask", "fountain.parity_mask")
    tracer.wrap(polar, "polar_for_parity", "polar.polar_for_parity")
    tracer.wrap(analytics, "plr_empirical", "analytics.plr_empirical")
    tracer.wrap(analytics, "min_parity", "analytics.min_parity")
    for fn in ("enumerate_patterns", "simulate_incremental", "weighted_cdf"):
        tracer.wrap(multicast, fn, f"multicast.{fn}")


class SpanTable:
    """Recorded spans as numpy columns, with each span's self time: its
    duration minus the union of the intervals its child spans cover."""

    def __init__(self, tracer: Tracer):
        import numpy as np

        rows = np.frombuffer(tracer.spans, dtype=np.int64).reshape(-1, FIELDS)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        if len(rows) and rows[-1, 0] != len(rows) - 1:
            raise RuntimeError("span ids are not dense; a traced call is still open")
        self.names = tracer.names
        self.parent = rows[:, 1]
        self.name = rows[:, 2]
        self.phase = rows[:, 3]
        start, end = rows[:, 4], rows[:, 5]
        self.duration = end - start
        self.self_ns = self.duration - _covered_by_children(self.parent, start, end,
                                                            len(rows))

    def mask(self, prefix: str, phase: str | None = None):
        """Spans whose name equals prefix or starts with prefix + '.'."""
        import numpy as np

        ids = [i for i, n in enumerate(self.names)
               if n == prefix or n.startswith(prefix + ".")]
        m = np.isin(self.name, ids)
        if phase is not None:
            m &= self.phase == (self.names.index(phase) if phase in self.names else -2)
        return m


def _covered_by_children(parent, start, end, count: int):
    """Per span id, nanoseconds of its interval covered by its children.
    Children of one parent overlap only when they ran on worker threads, so
    the intervals are merged rather than summed."""
    import numpy as np

    child = parent >= 0
    if not child.any():
        return np.zeros(count, dtype=np.int64)
    p, s, e = parent[child], start[child], end[child]
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order] - start.min(), e[order] - start.min()
    # running maximum of end times restarted for each parent: lift each group
    # above the previous one by more than the whole time range
    group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
    lift = group * (int(e.max()) + 1)
    reach = np.maximum.accumulate(e + lift) - lift
    prev = np.concatenate(([-1], reach[:-1]))
    prev[np.concatenate(([True], p[1:] != p[:-1]))] = -1
    covered = np.maximum(0, e - np.maximum(s, prev))
    return np.bincount(p, weights=covered, minlength=count).astype(np.int64)
