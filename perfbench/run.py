"""cycperm benchmark: seeded workloads against the library's public API.

    python3 perfbench/run.py --workload autgroup --seed 1 --seconds 20 --trace 0

Run from the repository root.  The requests run in one worker process
(worker.py) that imports cycperm from ./src; a request that passes the
deadline stops the worker, counts as failed, and a fresh worker takes the
next request.  A run covers as many whole rounds of requests as fit in
--seconds at the baseline (workloads.round_count), however fast they go.
Answers are checked afterwards with checks.py; any wrong answer makes the
exit code 1.

--trace 0 prints the end-to-end metrics; --trace 1 runs the rounds of half
of --seconds with spans around the library's public functions, replays them
untraced, and prints the per-layer metrics.  The last line of stdout is the JSON result; a readable summary
goes to stderr, and per-request records and spans to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import WrongAnswer, check                       # noqa: E402
from tracing import COUNTERS, REQUEST_SPAN, self_times, traced_names  # noqa: E402
from workloads import WORKLOADS, request_rounds, round_count  # noqa: E402

# per-request deadline, enforced by stopping the worker; no drawn request
# takes more than about 6 s at the baseline
DEADLINE_S = 60.0
# guard against hangs: no request starts after this much measuring, so a
# run with deadline hits still ends well inside three minutes
RUN_CAP_S = 90.0
START_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
# On a shared virtual machine the speed can swing by a factor of two within
# seconds (README.md, machine record), so every reported time is scaled to
# a machine on which worker.speed_probe() takes this long, using the median
# of the probes taken around each request of the run.  The records keep the
# unscaled times.
PROBE_REF_S = 0.025

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "req_p50_s": "s", "ok_frac": "fraction",
    "complete_frac": "fraction", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[f"{REQUEST_SPAN}.self_s"] = "s"
    for name, (counter, _) in COUNTERS.items():
        units[f"{name}.{counter}"] = "count"
    for name, counter in (("autgroups.backtrack_full_group", "nodes"),
                          ("perm.group_closure", "elements"),
                          ("perm.conjugation_scan", "perms")):
        units[f"{name}.{counter}_per_s"] = "1/s"
    units["codes.permute_code.tests_per_s"] = "1/s"
    units["trace.overhead_frac"] = "fraction"
    return units


class Worker:
    """One worker process speaking JSON lines over its stdin and stdout."""

    def __init__(self, trace: bool):
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1", PYTHONHASHSEED="0")
        cmd = [sys.executable, str(HERE / "worker.py"), str(SRC)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env)
        self.buf = b""
        line = self._read_line(time.monotonic() + START_TIMEOUT_S)
        if line is None or not json.loads(line).get("ready"):
            self.stop()
            raise RuntimeError("worker did not start")

    def _read_line(self, until: float) -> bytes | None:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = until - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def call(self, req: dict, deadline_s: float) -> dict | None:
        """The reply, or None when the worker passed the deadline or died."""
        try:
            self.proc.stdin.write(json.dumps(req).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        line = self._read_line(time.monotonic() + deadline_s)
        return None if line is None else json.loads(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_rounds(worker: Worker, rounds, trace: bool):
    """Execute the rounds, stopping early only past RUN_CAP_S.
    Returns (records, rounds run, worker); the worker may be a replacement."""
    records, done = [], 0
    start = time.perf_counter()
    for batch in rounds:
        if time.perf_counter() - start > RUN_CAP_S:
            break
        for req in batch:
            left = RUN_CAP_S + DEADLINE_S - (time.perf_counter() - start)
            sent = time.perf_counter()
            reply = worker.call(req, min(DEADLINE_S, max(left, 1.0)))
            if reply is None:
                outcome = "deadline" if worker.proc.poll() is None else "crash"
                reply = {"id": req["id"], "outcome": outcome,
                         "latency": time.perf_counter() - sent}
                worker.stop()
                worker = Worker(trace)
            records.append((req, reply))
        done += 1
    return records, done, worker


def complete(workload: str, req: dict, res: dict) -> bool:
    op = req["op"]
    if op == "analyze":
        return res["distance"][2] if workload == "distance" else res["order"] is not None
    if op == "qc_report":
        return res["exhaustive"]
    return res["complete"]


def check_all(records) -> list[str]:
    wrong = []
    for req, reply in records:
        if reply["outcome"] == "ok":
            try:
                check(req, reply["result"])
            except WrongAnswer as e:
                wrong.append(f"{req['id']}: {e}")
    return wrong


def layer_metrics(records) -> dict[str, float]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    busy: dict[str, float] = {}   # time the function was on the stack
    counts: dict[str, int] = {}
    for _, reply in records:
        spans = reply.get("spans", [])
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            busy[name] = busy.get(name, 0.0) + end - start
        for key, v in reply.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + v
    out = {}
    for name in traced_names():
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out[f"{REQUEST_SPAN}.self_s"] = self_s.get(REQUEST_SPAN, 0.0)

    def rate(x: float, name: str) -> float:
        return x / busy[name] if busy.get(name) else 0.0
    for name, (counter, _) in COUNTERS.items():
        out[f"{name}.{counter}"] = counts.get(f"{name}.{counter}", 0)
    for name, counter in (("autgroups.backtrack_full_group", "nodes"),
                          ("perm.group_closure", "elements"),
                          ("perm.conjugation_scan", "perms")):
        out[f"{name}.{counter}_per_s"] = rate(out[f"{name}.{counter}"], name)
    out["codes.permute_code.tests_per_s"] = rate(calls.get("codes.permute_code", 0),
                                                 "codes.permute_code")
    return out


def speed_scale(records) -> float:
    """PROBE_REF_S over the run's median probe time: multiplying a time
    measured in this run by it gives the time at the reference speed."""
    probes = [rep["probe"] for _, rep in records if "probe" in rep]
    return PROBE_REF_S / statistics.median(probes) if probes else 1.0


def end_to_end_metrics(workload: str, setup, records) -> dict[str, float]:
    done = [(req, rep) for req, rep in records if rep["outcome"] == "ok"]
    rounds: dict[str, float] = {}
    for _, rep in records:
        key = rep["id"].split(".")[0]
        rounds[key] = rounds.get(key, 0.0) + rep["latency"]
    scale = speed_scale(records)
    return {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": statistics.median(rounds.values()) * scale,
        "req_p50_s": statistics.median(rep["latency"] for _, rep in records) * scale,
        "ok_frac": len(done) / len(records),
        "complete_frac": sum(complete(workload, req, rep["result"])
                             for req, rep in done) / len(records),
        "peak_rss_mb": max(rep.get("rss_kb", 0) for _, rep in records) / 1024,
    }


def traced_metrics(traced, plain) -> dict[str, float]:
    """Per-layer metrics of the traced records, plus the tracing overhead
    against the same requests run untraced."""
    metrics = layer_metrics(traced)
    pairs = [(a, b) for (_, a), (_, b) in zip(traced, plain)
             if a["outcome"] == b["outcome"] == "ok"]
    # each phase at the reference speed, as the two run at different times
    untraced = sum(b["latency"] for _, b in pairs) * speed_scale(plain)
    metrics["trace.overhead_frac"] = (
        sum(a["latency"] for a, _ in pairs) * speed_scale(traced) / untraced - 1
        if untraced else 0.0)
    return metrics


def write_records(stem: str, records, traced) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"requests-{stem}.jsonl", "w") as fh:
        for req, rep in records:
            fh.write(json.dumps({"request": req, **{k: v for k, v in rep.items()
                                                    if k not in ("result", "spans")}}) + "\n")
    if traced:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for _, rep in traced:
                fh.write(json.dumps({"id": rep["id"], "spans": rep.get("spans", [])}) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cycperm" / "__init__.py").is_file():
        print(f"cycperm sources not found under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    # the traced run spends half of --seconds traced and half replaying
    count = round_count(args.workload, args.seconds / 2 if trace else args.seconds)
    setup = []
    repeats = 1 if trace else SETUP_REPEATS
    for i in range(repeats):
        t0 = time.perf_counter()
        rounds = request_rounds(args.workload, args.seed, count)
        worker = Worker(trace)
        setup.append(time.perf_counter() - t0)
        if i < repeats - 1:
            worker.stop()
    try:
        records, done, worker = run_rounds(worker, rounds, trace)
    finally:
        worker.stop()
    traced, plain = [], []
    if trace:
        # the same rounds untraced, for the overhead of tracing
        traced = records
        worker = Worker(False)
        try:
            plain, _, worker = run_rounds(worker, rounds[:done], False)
        finally:
            worker.stop()
        records = traced + plain

    wrong = check_all(records)
    failed = sum(1 for _, rep in records if rep["outcome"] != "ok")
    write_records(f"{args.workload}-seed{args.seed}" + ("-trace" if trace else ""),
                  records, traced)
    if trace:
        metrics, units = traced_metrics(traced, plain), per_layer_units()
    else:
        metrics, units = end_to_end_metrics(args.workload, setup, records), END_TO_END

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(records)} requests "
          f"in {done} rounds, {failed} failed, {len(wrong)} wrong; "
          f"times scaled by {speed_scale(records):.4f}", file=sys.stderr)
    for line in wrong:
        print(f"  WRONG {line}", file=sys.stderr)
    for _, rep in records:
        if rep["outcome"] != "ok":
            print(f"  {rep['outcome']}: {rep['id']} {rep.get('error', '')}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
