"""The contract between the harness and a workload."""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List


class Workload:
    """One fixed, seeded op list plus the program state it runs against.

    The harness drives it: ``setup`` once, then for every pass
    ``begin_pass`` (untimed), ``run_op`` for each slot (timed),
    ``check_op`` on each result (untimed), ``end_pass``; after the timed
    section ``verify`` returns one message per wrong output.
    """

    name = ""

    def __init__(self, seed: int, fraction: float, scratch: str):
        self.seed = seed
        #: Share of the full op list to build (1.0, or 0.1 under --smoke).
        self.fraction = fraction
        #: A directory inside the checkout this workload may write to.
        self.scratch = scratch
        self.ops: List[Dict[str, object]] = []

    # -- op list --------------------------------------------------------

    def rng(self) -> random.Random:
        """The only consumer of the benchmark seed."""
        return random.Random(f"ledger:{self.name}:{self.seed}")

    def scaled(self, count: int) -> int:
        return max(1, round(count * self.fraction))

    def digest(self) -> str:
        blob = json.dumps(self.ops, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    # -- driven by the harness -------------------------------------------

    def build_ops(self) -> None:
        """Build the environment and, from it and the seed, ``self.ops``."""
        raise NotImplementedError

    def setup(self) -> None:
        """``build_ops`` plus the program state the ops run against
        (servers, pools) and every cold touch."""
        self.build_ops()

    def begin_pass(self, traced: bool = False) -> None:
        """Untimed work before a pass (fresh servers, catalogs, ...)."""

    def run_op(self, slot: int):
        """Execute op ``slot``; the harness times exactly this call."""
        raise NotImplementedError

    def check_op(self, slot: int, result) -> bool:
        """Cheap correctness check of one result, outside the timing."""
        return True

    def end_pass(self) -> None:
        """Untimed work after a pass."""

    def child_cpu_seconds(self) -> float:
        """Cumulative CPU seconds of the processes this workload runs."""
        return 0.0

    def verify(self) -> List[str]:
        """Output verification after the timed section."""
        return []

    def trace(self, recorder) -> Dict[str, float]:
        """The traced run's layer replay and probes: spans and each op's
        end-to-end reference go to ``recorder``, per-layer metrics are
        returned."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything ``setup`` started."""
