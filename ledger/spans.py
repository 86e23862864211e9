"""In-memory span recorder for the traced run.

Spans are recorded from ledger code around calls into each layer's
public functions (the program's own tracer supplies counts only).  A
span is ``name``/``start``/``end``/``parent``/``op``/``round``; a
layer's self time is its span minus the part its child spans cover.
The replay drives its ops ``REPLAY_ROUNDS`` times and, like the slot
latencies, keeps each op's best round per layer.  Right beside the
layered drive of an op it also runs the op through the program's own
entry point (``SpanRecorder.end_to_end``); coverage compares the two, so
both sides saw the machine in the same state.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import MemorySink, Tracer

REPLAY_ROUNDS = 3


def new_tracer() -> Tracer:
    """The program's own tracer, for a traced pass: it supplies counts."""
    return Tracer(MemorySink())


class _Scope:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: int):
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> "_Scope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self.recorder
        recorder.spans[self.index]["end"] = time.perf_counter()
        recorder._stack.pop()
        return False


class SpanRecorder:
    """Nestable timed scopes, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        #: Set by the replay loop before it drives an op.
        self.op: Optional[int] = None
        self.round = 0
        #: Per op: its best end-to-end seconds (see :meth:`end_to_end`).
        self.direct: Dict[int, float] = {}

    def span(self, name: str) -> _Scope:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "round": self.round,
            }
        )
        self._stack.append(index)
        return _Scope(self, index)

    def end_to_end(self, call: Callable[[], object]):
        """Run ``call`` — the current op through the program's own entry
        point — and keep its best time as the op's end-to-end reference."""
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        self.direct[self.op] = min(elapsed, self.direct.get(self.op, elapsed))
        return result

    # -- analysis -------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, in recording order."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def per_op(self) -> Dict[str, Dict[int, float]]:
        """``{layer: {op: seconds}}`` — a layer's self time summed per op,
        best round."""
        table = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for span, seconds in zip(self.spans, self.self_times()):
            table[span["name"]][span["op"]][span["round"]] += seconds
        return {
            name: {op: min(rounds.values()) for op, rounds in ops.items()}
            for name, ops in table.items()
        }

    def layer_ms(self, name: str) -> float:
        """Median per-op self time of ``name`` in ms over the ops that
        enter it (0.0 when no op does)."""
        ops = self.per_op().get(name)
        if not ops:
            return 0.0
        return 1000.0 * statistics.median(ops.values())

    def coverage(self, off_path: Sequence[str] = ()) -> float:
        """Sum of the recorded self-times over the end-to-end time of the
        same ops.  ``off_path`` names spans that are not on the
        end-to-end path."""
        covered = sum(
            seconds
            for name, per_op in self.per_op().items()
            if name not in off_path
            for seconds in per_op.values()
        )
        return covered / sum(self.direct.values())

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span["name"] == name)

    def write(self, path: str, extra: Optional[Dict[str, object]] = None) -> None:
        payload = dict(extra or {})
        payload["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(payload, handle)
