"""Shared-memory numpy planes for the parallel substrate.

Large read-only arrays — ``PlanCostCache`` cost fields, plan-diagram
plan-id/cost matrices, sweep cohort inputs — used to ride inside the
pickled worker payload, costing one serialize + one deserialize + one
resident copy *per worker per call*.  Here they are exported once into
POSIX shared memory (``multiprocessing.shared_memory``) and the payload
carries only ``(segment name, shape, dtype)``: workers map the segment
and read the plane zero-copy.

Lifecycle is strictly parent-owned:

* :func:`export_array` copies an array into a fresh segment and returns
  a :class:`ShmArray` view.  The parent-side :class:`SegmentRegistry`
  tracks the source array and the view *weakly*: repeated exports of
  the same live array object reuse the same segment (stable payload
  pickle bytes, therefore stable payload digests), and a segment is
  closed + unlinked as soon as both the source and every handed-out
  view are garbage — so a long-lived serving process whose cost planes
  come and go does not pin /dev/shm until shutdown.
* Workers attaching a segment immediately *unregister* it from their
  ``resource_tracker``: the parent unlinks, so a worker-side tracker
  entry would only produce spurious "leaked shared_memory" warnings and
  double-unlink races at worker exit.
* :func:`release_segments` (called by ``shutdown_pools`` and on pool
  teardown/interrupt) closes and unlinks everything.  The ledger and the
  lifecycle tests assert ``/dev/shm`` holds none of our segments after
  shutdown — segments are namespaced ``repro_par_*`` to make that
  auditable.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "ShmArray",
    "export_array",
    "release_segments",
    "live_segment_names",
    "leaked_segments",
]

_PREFIX = "repro_par_"


def _attach_plane(name: str, shape: Tuple[int, ...], dtype: str) -> np.ndarray:
    """Worker-side reconstruction: map the segment, return a frozen view.

    If this process already owns a mapping of the segment — the parent
    verifying a spawn payload via ``pickle.loads``, or a forked worker
    that inherited the registry — the view is built over that mapping:
    no second attach, no resource-tracker interaction, no entry in
    ``_ATTACHED``.  Otherwise the segment is mapped once and cached per
    name so repeated payloads referencing the same plane share one
    mapping.  The returned array is a *plain* read-only ndarray (not a
    :class:`ShmArray`): if a worker ever re-pickles a derived slice it
    serializes values, never a dangling segment name.
    """
    shm = _REGISTRY.owned(name)
    if shm is None:
        shm = _ATTACHED.get(name)
        if shm is not None:
            _ATTACHED.move_to_end(name)
    if shm is None:
        # The parent owns unlink.  Python 3.11's SharedMemory has no
        # track= knob and registers every attach with the resource
        # tracker, whose per-type cache is a *set* — under fork the
        # worker shares the parent's tracker, the duplicate register
        # collapses, and the eventual double unregister raises in the
        # tracker process.  Suppress registration for the attach
        # instead, under a lock: the patch is process-global, and a
        # concurrent legitimate registration on another thread must not
        # land in the patch window and be silently swallowed.
        with _TRACKER_LOCK:
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        _ATTACHED[name] = shm
        _prune_attached()
    array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    array.flags.writeable = False
    return array


def _prune_attached() -> None:
    """Close attach-cache mappings that nothing references any more.

    A persistent worker fed an endless stream of payloads would
    otherwise keep every segment it ever mapped resident — including
    segments the parent has long since unlinked, whose pages only the
    worker's stale mapping still pins.  Mappings whose planes are still
    referenced by a live payload refuse to close (``BufferError``) and
    are kept.
    """
    excess = len(_ATTACHED) - _ATTACH_SLOTS
    if excess <= 0:
        return
    for name in list(_ATTACHED):
        if excess <= 0:
            break
        try:
            _ATTACHED[name].close()
        except BufferError:
            continue  # in use by a live decoded payload
        del _ATTACHED[name]
        excess -= 1


_ATTACH_SLOTS = 64
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_TRACKER_LOCK = threading.Lock()


class ShmArray(np.ndarray):
    """An ndarray view over a shared-memory segment that pickles by name.

    In the parent it behaves exactly like the source array (same values,
    same dtype/shape, read-only).  Pickling it — which only happens when
    it is embedded in a worker payload — emits the ``(name, shape,
    dtype)`` triple instead of the buffer, so shipping a bouquet whose
    cost planes are ``ShmArray`` views costs bytes proportional to the
    metadata, not the grids.
    """

    _shm_name: str

    def __reduce__(self):
        return (_attach_plane, (self._shm_name, self.shape, self.dtype.str))


class _Segment:
    """Book-keeping for one exported segment.

    Holds the only strong reference to the :class:`SharedMemory`; the
    source array and the handed-out :class:`ShmArray` view are tracked
    weakly so their lifetimes drive eviction.
    """

    __slots__ = ("key", "shm", "source_ref", "view_ref", "released")

    def __init__(self, key: int, shm: shared_memory.SharedMemory):
        self.key = key
        self.shm = shm
        self.source_ref: Optional[weakref.ref] = None
        self.view_ref: Optional[weakref.ref] = None
        self.released = False


class SegmentRegistry:
    """Parent-side owner of every exported segment.

    Segments are evicted as soon as *both* ends stop needing them: the
    source array (kept weakly, so e.g. ``PlanCostCache`` LRU-evicting a
    plane in a long-lived serving process releases its shm bytes
    instead of pinning /dev/shm until shutdown) and the exported
    :class:`ShmArray` view (kept weakly, so a segment whose name is
    still embedded in an in-flight payload is never unlinked under the
    workers).  While the source lives, repeated exports return the same
    segment name, keeping payload digests stable across calls.

    Eviction is pid-guarded: forked workers inherit the finalizers, and
    a child's garbage collector must never unlink a segment the parent
    still serves.
    """

    def __init__(self):
        # RLock: weakref finalizers can fire from a GC triggered by an
        # allocation inside a locked section on this same thread.
        self._lock = threading.RLock()
        self._owner_pid = os.getpid()
        self._by_source: Dict[int, _Segment] = {}  # id(source) -> segment
        self._segments: Dict[str, _Segment] = {}  # shm name -> segment

    def export(self, array: np.ndarray, tracer: Tracer = NULL_TRACER) -> ShmArray:
        key = id(array)
        with self._lock:
            segment = self._by_source.get(key)
            if segment is not None and segment.source_ref() is array:
                view = segment.view_ref()
                if view is None:
                    # The previous view died (its payload was dropped);
                    # re-wrap the live segment under the same name so
                    # payload digests stay stable across calls.
                    view = self._wrap(segment, array.shape, array.dtype)
                return view
        source = np.ascontiguousarray(array)
        name = _PREFIX + secrets.token_hex(8)
        shm = shared_memory.SharedMemory(name=name, create=True, size=source.nbytes)
        plane = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        plane[...] = source
        if tracer.enabled:
            tracer.count("par.shm.exports")
            tracer.observe("par.shm.bytes", float(source.nbytes))
        segment = _Segment(key, shm)
        segment.source_ref = weakref.ref(array)
        weakref.finalize(array, self._maybe_evict, segment)
        with self._lock:
            view = self._wrap(segment, source.shape, source.dtype)
            self._by_source[key] = segment
            self._segments[name] = segment
        return view

    def _wrap(self, segment: _Segment, shape, dtype) -> ShmArray:
        plane = np.ndarray(shape, dtype=dtype, buffer=segment.shm.buf)
        view = plane.view(ShmArray)
        view._shm_name = segment.shm.name
        view.flags.writeable = False
        segment.view_ref = weakref.ref(view)
        weakref.finalize(view, self._maybe_evict, segment)
        return view

    def _maybe_evict(self, segment: _Segment) -> None:
        """Release the segment once neither source nor view is alive."""
        if os.getpid() != self._owner_pid:
            return  # inherited finalizer in a forked worker: not ours
        with self._lock:
            if segment.released:
                return
            if segment.source_ref() is not None or segment.view_ref() is not None:
                return  # the other holder is still alive; its finalizer will retry
            segment.released = True
            self._segments.pop(segment.shm.name, None)
            if self._by_source.get(segment.key) is segment:
                del self._by_source[segment.key]
        _close_and_unlink(segment.shm)

    def owned(self, name: str) -> Optional[shared_memory.SharedMemory]:
        """This process's own mapping of ``name``, if it exported it.

        Lock-free on purpose: forked workers call this with an
        inherited registry whose lock may have been mid-acquire at fork
        time.  A GIL-atomic dict read is all a lookup needs.
        """
        segment = self._segments.get(name)
        return segment.shm if segment is not None else None

    def names(self) -> List[str]:
        with self._lock:
            return [segment.shm.name for segment in self._segments.values()]

    def release(self) -> None:
        if os.getpid() != self._owner_pid:
            return  # inherited registry in a forked worker: not ours
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._by_source.clear()
            for segment in segments:
                segment.released = True
        for segment in segments:
            _close_and_unlink(segment.shm)


def _close_and_unlink(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except Exception:
        pass  # a live view still exports the buffer; unlink regardless
    try:
        shm.unlink()
    except Exception:
        pass  # already gone (e.g. an interrupted earlier release)


_REGISTRY = SegmentRegistry()


def export_array(array: np.ndarray, tracer: Tracer = NULL_TRACER) -> ShmArray:
    """Export ``array`` into shared memory (idempotent per array object)."""
    if isinstance(array, ShmArray):
        return array
    return _REGISTRY.export(array, tracer)


def live_segment_names() -> List[str]:
    """Names of segments currently owned by this process's registry."""
    return _REGISTRY.names()


def release_segments() -> None:
    """Close + unlink every segment this process exported."""
    _REGISTRY.release()


def leaked_segments() -> List[str]:
    """``repro_par_*`` segments still visible in /dev/shm.

    After :func:`release_segments` this must be empty — the ledger's
    ``eval_campaign`` output check and the shm lifecycle tests gate on
    it.  On platforms without /dev/shm
    the scan degrades to the registry's own book-keeping.
    """
    root = "/dev/shm"
    if os.path.isdir(root):
        try:
            return sorted(n for n in os.listdir(root) if n.startswith(_PREFIX))
        except OSError:
            pass
    return _REGISTRY.names()
