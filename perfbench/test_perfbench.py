"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks                                   # noqa: E402
import run                                      # noqa: E402
import tracing                                  # noqa: E402
from workloads import WORKLOADS, request_rounds, serialize  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    first = serialize(request_rounds(workload, 11, 3))
    assert first == serialize(request_rounds(workload, 11, 3))
    assert first != serialize(request_rounds(workload, 12, 3))


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_binding_is_rebound():
    import cycperm  # noqa: F401  loads every module of the package
    rec = tracing.Recorder()
    originals = tracing.install(rec)
    try:
        assert sorted(originals) == sorted(tracing.traced_names())
        leftover = [(mod.__name__, key) for mod in tracing.package_modules()
                    for key, value in vars(mod).items()
                    if any(value is orig for orig in originals.values())]
        assert leftover == []
        # a name imported across modules is rebound at each site
        wrapped = sys.modules["cycperm.codes"].permute_code
        for mod in ("autgroups", "equivalence", "quasicyclic", "verification"):
            assert getattr(sys.modules[f"cycperm.{mod}"], "permute_code") is wrapped
    finally:
        for mod in tracing.package_modules():
            for key, value in list(vars(mod).items()):
                if getattr(value, "__wrapped__", None) in originals.values():
                    setattr(mod, key, value.__wrapped__)


_HAMMING7 = {"op": "analyze", "code": {"q": 2, "n": 7, "ds": [1, 2, 4]}, "id": "r0.h7"}


def test_forced_deadline_is_a_failure_not_a_wrong_answer(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.0)
    worker = run.Worker(False)
    first_pid = worker.proc.pid
    try:
        records, done, worker = run.run_rounds(worker, [[_HAMMING7]], False)
        assert [rep["outcome"] for _, rep in records] == ["deadline"]
        assert run.check_all(records) == []
        assert worker.proc.pid != first_pid and worker.proc.poll() is None
        reply = worker.call(_HAMMING7, 60)
        assert reply["outcome"] == "ok"
    finally:
        worker.stop()


def test_failed_requests_count_against_ok_frac():
    bad = {"op": "analyze", "code": {"q": 2, "n": 15, "ds": [1]}, "id": "r0.bad"}
    budget = {**_HAMMING7, "node_budget": 5, "id": "r0.budget"}
    worker = run.Worker(False)
    try:
        records = [(req, worker.call(req, 60)) for req in (_HAMMING7, bad, budget)]
    finally:
        worker.stop()
    assert [rep["outcome"] for _, rep in records] == ["ok", "error", "budget"]
    assert run.check_all(records) == []
    metrics = run.end_to_end_metrics("autgroup", [0.1], records)
    assert metrics["ok_frac"] == pytest.approx(1 / 3)
    assert metrics["complete_frac"] == pytest.approx(1 / 3)


_EQUIV9 = {"op": "equiv", "code": {"q": 2, "n": 9, "ds": [1, 2, 4, 5, 7, 8]},
           "other": {"q": 2, "n": 9, "ds": [1, 2, 4, 5, 7, 8]}, "planted": 2, "id": "r0.e9"}


def test_span_self_times_add_up_to_the_request():
    worker = run.Worker(True)
    try:
        replies = [worker.call(req, 60) for req in (_HAMMING7, _EQUIV9)]
    finally:
        worker.stop()
    for reply in replies:
        spans = reply["spans"]
        assert spans[0][0] == tracing.REQUEST_SPAN and spans[0][3] is None
        assert len(spans) > 1
        assert all(0 <= s[3] < i for i, s in enumerate(spans) if i)
        own = tracing.self_times(spans)
        assert min(own) >= -1e-9
        assert sum(own) == pytest.approx(spans[0][2] - spans[0][1], rel=1e-9, abs=1e-9)


def test_answers_are_checked():
    worker = run.Worker(False)
    try:
        reply, verdict = (worker.call(req, 60) for req in (_HAMMING7, _EQUIV9))
    finally:
        worker.stop()
    res = verdict["result"]
    checks.check(_EQUIV9, res)
    with pytest.raises(checks.WrongAnswer):
        checks.check(_EQUIV9, {**res, "status": "inequivalent", "witness": None})
    with pytest.raises(checks.WrongAnswer):
        checks.check(_EQUIV9, {**res, "witness": [1, 0, 2, 3, 4, 5, 6, 7, 8]})

    res = reply["result"]
    checks.check(_HAMMING7, res)
    code = res["code"]
    # a transposition is not an automorphism of the Hamming code
    assert not checks.maps_onto(code, code, [1, 0, 2, 3, 4, 5, 6], 7)
    with pytest.raises(checks.WrongAnswer):
        checks.check(_HAMMING7, {**res, "order": 336})
    with pytest.raises(checks.WrongAnswer):
        checks.check(_HAMMING7, {**res, "generators": res["generators"] + [[1, 0, 2, 3, 4, 5, 6]]})
    with pytest.raises(checks.WrongAnswer):
        checks.check(_HAMMING7, {**res, "distance": [4, 4, True]})


def test_gf4_tables_are_a_field():
    add, mul, neg, inv = checks.field_tables(2, 2, (1, 1, 1))
    q = np.arange(4)
    assert (add[q, neg[q]] == 0).all()
    assert (mul[q[1:], inv[q[1:]]] == 1).all()
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
