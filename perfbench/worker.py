"""Worker process: builds each requested code with cycperm, makes the one
library call the request names, and replies with the answer and its latency.

Protocol: one JSON object per line on stdin and stdout.  The first line out
is {"ready": ...} once the package is imported and warmed up.  Started by
run.py as `python3 perfbench/worker.py SRC_DIR [--trace]`.
"""
from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

from workloads import FIELDS


def _field(lib, q: int):
    return lib.make_field(*FIELDS[q])


def _cyclic(lib, spec: dict):
    return lib.cyclic_code(spec["n"], _field(lib, spec["q"]), spec["ds"])


def _quasi_cyclic(lib, spec: dict):
    F, n, l = _field(lib, spec["q"]), spec["n"], spec["index"]
    rows = []
    if spec["kind"] == "circulant":
        v = spec["row"]
        for i in range(5):
            row = [0] * n
            row[2 * i] = 1
            for j in range(5):
                row[2 * j + 1] = v[(j - i) % 5]
            rows.append(row)
    else:
        for off, ds in enumerate(spec["parts"]):
            for r in lib.cyclic_code(5, F, ds).linear.matrix:
                row = [0] * n
                for i, x in enumerate(r):
                    row[l * i + off] = x
                rows.append(row)
    return lib.QuasiCyclicCode(lib.LinearCode.from_rows(F, n, rows), l)


def _image(lib, qc, images: list[int]):
    """The code whose coordinate images[i] carries coordinate i of qc."""
    n = qc.n
    rows = []
    for r in qc.linear.matrix:
        row = [0] * n
        for i, x in enumerate(r):
            row[images[i]] = x
        rows.append(row)
    return lib.QuasiCyclicCode(lib.LinearCode.from_rows(qc.field, n, rows), qc.index)


def _matrices(code) -> dict:
    F = code.field
    return {"p": F.characteristic, "s": F.degree, "modulus": list(F.modulus),
            "G": [list(r) for r in code.matrix],
            "H": [list(r) for r in code.dual().matrix]}


def _verdict(v, lin1, lin2) -> dict:
    return {"status": v.status, "complete": v.complete,
            "witness": list(v.witness.images) if v.witness is not None else None,
            "first": _matrices(lin1), "second": _matrices(lin2)}


def execute(lib, req: dict):
    """Run one request.  Returns (latency in seconds, pack), where pack()
    builds the reply payload; the latency covers building the codes from
    their specs and the library call, not the packing."""
    op = req["op"]
    t0 = time.perf_counter()
    if op == "analyze":
        code = _cyclic(lib, req["code"])
        kwargs = {k: req[k] for k in ("distance_budget", "node_budget") if k in req}
        rep = lib.analyze(code, **kwargs)
        latency = time.perf_counter() - t0
        d = rep.distance
        return latency, lambda: {
            "order": rep.full_group_order, "known_order": rep.known_subgroup_order,
            "m": rep.m, "k": rep.k,
            "generators": [list(g.images) for g in rep.discovered_generators],
            "distance": [d.lower, d.upper, d.exact],
            "code": _matrices(code.linear)}
    if op == "equiv":
        c1, c2 = _cyclic(lib, req["code"]), _cyclic(lib, req["other"])
        v = lib.decide_equivalence(c1, c2, "HP")
        latency = time.perf_counter() - t0
        return latency, lambda: _verdict(v, c1.linear, c2.linear)
    if op == "qc_report":
        qc = _quasi_cyclic(lib, req["qc"])
        rep = lib.imprimitivity_report(qc)
        latency = time.perf_counter() - t0
        return latency, lambda: {
            "discovered": rep.discovered, "exhaustive": rep.exhaustive,
            "p_order": rep.p_order, "closure_order": rep.closure_order,
            "blocks": [[list(b) for b in bs.blocks] for bs in rep.block_systems],
            "conclusion": rep.conclusion}
    if op == "qc_equiv":
        qc = _quasi_cyclic(lib, req["qc"])
        other = _image(lib, qc, req["image"])
        v = lib.qc_equivalence_search(qc, other)
        latency = time.perf_counter() - t0
        return latency, lambda: _verdict(v, qc.linear, other.linear)
    raise ValueError(f"unknown op {op!r}")


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter work, small numpy arithmetic
    and numpy passes over 8 MB arrays: a gauge of how fast the machine runs
    at this moment."""
    t0 = time.perf_counter()
    x, d = 0, {}
    for i in range(100_000):
        x += i * i
    for i in range(20_000):
        d[i % 977] = i
    a = np.arange(96 * 96, dtype=np.int64).reshape(96, 96)
    for _ in range(8):
        a = (a @ a.T) % 7 + a[:, ::-1]
    for _ in range(2):
        b = np.arange(1 << 21, dtype=np.int32)
        b *= 3
        b += 1
        x += int(b[::5].sum())
    return time.perf_counter() - t0


def serve(lib, rec, stdin, stdout) -> None:
    from tracing import REQUEST_SPAN
    for line in stdin:
        req = json.loads(line)
        reply = {"id": req["id"]}
        before = speed_probe()
        if rec is not None:
            root = rec.begin(REQUEST_SPAN)
        pack = None
        started = time.perf_counter()
        try:
            latency, pack = execute(lib, req)
            reply.update(outcome="ok", latency=latency)
        except lib.BacktrackBudgetExceeded as e:
            reply.update(outcome="budget", error=str(e),
                         latency=time.perf_counter() - started)
        except Exception as e:  # reported as a failed request, never fatal
            reply.update(outcome="error", error=f"{type(e).__name__}: {e}",
                         latency=time.perf_counter() - started)
        if rec is not None:
            rec.end(root)
        if pack is not None:
            reply["result"] = pack()
        if rec is not None:
            # spans opened while packing sit outside the request span
            spans, counts = rec.take()
            spans = [s for s in spans if s[2] <= spans[0][2]]
            t0 = spans[0][1]
            reply["spans"] = [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in spans]
            reply["counts"] = counts
        reply["probe"] = (before + speed_probe()) / 2
        reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
        stdout.flush()


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[0])
    import cycperm as lib
    # warm the imports and field tables a first call would otherwise pay
    lib.analyze(lib.cyclic_code(7, lib.make_field(2), {1, 2, 4}))
    rec = None
    if "--trace" in argv[1:]:
        from tracing import Recorder, install
        rec = Recorder()
        install(rec)
    sys.stdout.write(json.dumps({"ready": True, "package": lib.__file__}) + "\n")
    sys.stdout.flush()
    serve(lib, rec, sys.stdin, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
