"""Spans around the calls into cycperm's public functions, recorded from
outside the package.

`install` wraps each traced function and rebinds the wrapper under every
name that holds the original in any loaded cycperm module, so calls made
inside the package are traced as well as calls made by the benchmark.
Spans stay in memory; the worker hands them over with each reply.
"""
from __future__ import annotations

import functools
import sys
import time
from math import factorial

# module -> functions; verification and cli only call these and are not traced
TRACED = {
    "perm": ("group_closure", "sylow_ascend", "conjugation_scan",
             "normalizer_in_symmetric", "minimal_blocks"),
    "codes": ("permute_code", "min_distance", "weight_profile"),
    "autgroups": ("analyze", "backtrack_full_group", "multiplier_scan",
                  "known_cyclic_subgroup", "gk_family"),
    "equivalence": ("decide_equivalence", "build_sylow_descriptor", "hp_set",
                    "q_group", "gr_formula_set"),
    "quasicyclic": ("imprimitivity_report", "qc_equivalence_search", "qc_sylow"),
}

REQUEST_SPAN = "bench.request"

# work counted at a span: name -> (counter, f(args, result))
COUNTERS = {
    "autgroups.backtrack_full_group": ("nodes", lambda a, r: r.nodes),
    "perm.group_closure": ("elements", lambda a, r: len(r)),
    "perm.conjugation_scan": ("perms", lambda a, r: factorial(a[0])),
    "equivalence.hp_set": ("members", lambda a, r: len(r)),
    "quasicyclic.imprimitivity_report": ("discovered", lambda a, r: r.discovered),
    "codes.min_distance": ("exact", lambda a, r: int(r.exact)),
}


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Recorder:
    """Spans of the current request, each [name, start, end, parent index];
    the request's id travels with them in the worker's reply."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def take(self) -> tuple[list[list], dict[str, int]]:
        out = self.spans, self.counts
        self.spans, self.counts = [], {}
        return out


def _wrap(fn, name: str, rec: Recorder):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if counter is not None:
            rec.count(f"{name}.{counter[0]}", counter[1](args, result))
        return result

    return traced


def package_modules() -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "cycperm" or key.startswith("cycperm."))]


def install(rec: Recorder) -> dict[str, object]:
    """Wrap every traced function and rebind it wherever a loaded module of
    the package binds the original.  Returns name -> original function."""
    modules = package_modules()
    originals = {}
    for mod_name, fns in TRACED.items():
        home = sys.modules[f"cycperm.{mod_name}"]
        for fn_name in fns:
            orig = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = _wrap(orig, name, rec)
            originals[name] = orig
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
    return originals


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]
