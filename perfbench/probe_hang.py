"""Reproduce the backtrack budget hang through the benchmark's worker.

    python3 perfbench/probe_hang.py

GF(2) n=15 with defining set {1,2,4,5,7,8,10,11,13,14} (k=5) under
node_budget=20_000: when the budget runs out, lower_bound_order closes the
automorphisms found so far with group_closure, which does not return.  The
request is too slow for the timed workloads, so this script runs it alone
and prints whether it returned within 30 s.
"""
from __future__ import annotations

import json
import sys
import time

from run import Worker

REQUEST = {"op": "analyze", "code": {"q": 2, "n": 15, "ds": [1, 2, 4, 5, 7, 8, 10, 11, 13, 14]},
           "node_budget": 20_000, "id": "hang"}
DEADLINE_S = 30.0


def main() -> int:
    worker = Worker(False)
    t0 = time.perf_counter()
    try:
        reply = worker.call(REQUEST, DEADLINE_S)
    finally:
        worker.stop()
    outcome = "deadline" if reply is None else reply["outcome"]
    print(json.dumps({"request": REQUEST, "outcome": outcome, "deadline_s": DEADLINE_S,
                      "elapsed_s": time.perf_counter() - t0,
                      "error": (reply or {}).get("error")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
