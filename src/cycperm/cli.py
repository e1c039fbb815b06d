"""Command line front end.

Verbs: factor, enumerate, analyze, equiv, qc, verify-paper.  Every report is
JSON with the run configuration embedded, so a report names the seed and
budgets that produced it and identical configurations reproduce identical
bytes.  The verification table can also be exported as CSV (with per-row
runtimes, which the JSON form deliberately omits).

Exit codes: 0 success (and an all-clear verification run), 1 usage or input
error, 2 budget exhaustion, 3 verification mismatch.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .autgroups import BacktrackBudgetExceeded, NODE_BUDGET_DEFAULT, analyze
from .algebra import make_field, minimal_polynomial, prime_power
from .codes import (
    DEFAULT_DISTANCE_BUDGET,
    ENUMERATION_BOUND,
    CyclicCode,
    as_cyclic,
    code_from_spec,
    count_cyclic_codes,
    cyclic_code,
    cyclotomic_cosets,
    enumerate_cyclic_codes,
    is_elementary,
    load_code,
    min_distance,
)
from .equivalence import decide_equivalence
from .quasicyclic import QuasiCyclicCode, imprimitivity_report
from .verification import (
    SCOPES,
    battery_csv,
    battery_summary,
    exit_status,
    run_battery,
)

EXIT_OK, EXIT_USAGE, EXIT_BUDGET, EXIT_MISMATCH = 0, 1, 2, 3

_FAST_SCOPES = ("tables", "lemmas", "qc")

_DISTANCE_PARTIAL = ("distance budget exhausted before the minimum distance "
                     "was certified; the distance is an interval")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; route everything
    # through one usage exit code instead
    def error(self, message: str) -> None:
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output, recorded in the report."""
    verb: str
    inputs: tuple[str, ...] = ()
    q: int | None = None
    n: int | None = None
    defining_set: tuple[int, ...] | None = None
    strategy: str | None = None
    budget_nodes: int = NODE_BUDGET_DEFAULT
    budget_dist: int = DEFAULT_DISTANCE_BUDGET
    out: str | None = None
    seed: int = 0
    scope: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.budget_nodes <= 0:
            raise ValueError(f"node budget must be positive, got {self.budget_nodes}")
        if self.budget_dist <= 0:
            raise ValueError(f"distance budget must be positive, got {self.budget_dist}")

    def to_json(self) -> dict:
        # the output path is delivery, not configuration: a report's bytes
        # do not depend on where it is written
        return {
            "verb": self.verb,
            "inputs": list(self.inputs),
            "q": self.q,
            "n": self.n,
            "defining_set": None if self.defining_set is None else list(self.defining_set),
            "strategy": self.strategy,
            "budget_nodes": self.budget_nodes,
            "budget_dist": self.budget_dist,
            "seed": self.seed,
            "scope": list(self.scope),
        }


def _field_from_order(q: int):
    try:
        p, s = prime_power(q)
    except ValueError:
        raise ValueError(f"field order {q} is not a prime power") from None
    return make_field(p, s)


def _parse_defining_set(text: str) -> tuple[int, ...]:
    toks = [t.strip() for t in text.split(",")]
    return tuple(int(t) for t in toks if t)


def _distance_json(res) -> int | list[int]:
    return res.value if res.exact else [res.lower, res.upper]


def _load_cyclic(path: str) -> CyclicCode:
    code = load_code(path)
    try:
        return as_cyclic(code)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# --- verbs -------------------------------------------------------------------------

def cmd_factor(config: RunConfig) -> tuple[dict, int]:
    field = _field_from_order(config.q)
    n = config.n
    out = []
    for coset in cyclotomic_cosets(n, field.order):
        poly = minimal_polynomial(field, n, coset)
        out.append({"coset": list(coset), "polynomial": list(poly.coeffs)})
    return {"config": config.to_json(), "n": n, "q": field.order,
            "factors": out}, EXIT_OK


def cmd_enumerate(config: RunConfig) -> tuple[dict, int]:
    field = _field_from_order(config.q)
    count = count_cyclic_codes(config.n, field)
    payload: dict = {"config": config.to_json(), "count": count}
    if count > ENUMERATION_BOUND:
        payload["codes"] = None
        return payload, EXIT_OK
    listing = []
    certified = True
    for code in enumerate_cyclic_codes(config.n, field):
        dist = min_distance(code.linear, budget=config.budget_dist)
        certified &= dist.exact
        listing.append({
            "n": code.n,
            "k": code.k,
            "distance": _distance_json(dist),
            "defining_set": sorted(code.defining_set),
            "elementary": is_elementary(code.linear),
        })
    payload["codes"] = listing
    if not certified:
        payload["partial"] = _DISTANCE_PARTIAL
        return payload, EXIT_BUDGET
    return payload, EXIT_OK


def _input_code(config: RunConfig) -> CyclicCode:
    if config.inputs:
        return _load_cyclic(config.inputs[0])
    if config.q is None or config.n is None or config.defining_set is None:
        raise ValueError("provide either --in FILE or all of --q, --n, --defining-set")
    field = _field_from_order(config.q)
    return cyclic_code(config.n, field, set(config.defining_set))


def cmd_analyze(config: RunConfig) -> tuple[dict, int]:
    code = _input_code(config)
    partial, extra = [], {}
    try:
        report = analyze(code, node_budget=config.budget_nodes,
                         distance_budget=config.budget_dist)
    except BacktrackBudgetExceeded as exc:
        report = exc.report
        partial.append("node budget exhausted before the full group search "
                       "completed")
        extra["order_lower_bound"] = exc.order_lower_bound
    if not report.distance.exact:
        partial.append(_DISTANCE_PARTIAL)
    payload = {"config": config.to_json(), "report": report.to_json(), **extra}
    if partial:
        payload["partial"] = "; ".join(partial)
        return payload, EXIT_BUDGET
    return payload, EXIT_OK


def cmd_equiv(config: RunConfig) -> tuple[dict, int]:
    if len(config.inputs) != 2:
        raise ValueError("equiv needs exactly two --in files")
    c1 = _load_cyclic(config.inputs[0])
    c2 = _load_cyclic(config.inputs[1])
    verdict = decide_equivalence(c1, c2, config.strategy)
    return {"config": config.to_json(), "verdict": verdict.to_json()}, EXIT_OK


def cmd_qc(config: RunConfig) -> tuple[dict, int]:
    if len(config.inputs) != 1:
        raise ValueError("qc needs exactly one --in file")
    with open(config.inputs[0]) as fh:
        spec = json.load(fh)
    try:
        index = int(spec.pop("index"))
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ValueError(f"{config.inputs[0]}: missing or malformed \"index\" key "
                         "(the co-index divisor l)") from None
    code = code_from_spec(spec)
    lin = code.linear if isinstance(code, CyclicCode) else code
    report = imprimitivity_report(QuasiCyclicCode(lin, index))
    return {"config": config.to_json(), "report": report.to_json()}, EXIT_OK


def cmd_verify_paper(config: RunConfig) -> tuple[dict | str, int]:
    rows = run_battery(config.scope, seed=config.seed)
    status = exit_status(rows)
    if config.out and config.out.endswith(".csv"):
        return battery_csv(rows), status
    return {"config": config.to_json(),
            "rows": [r.to_json() for r in rows],
            "summary": battery_summary(rows)}, status


_VERBS = {
    "factor": cmd_factor,
    "enumerate": cmd_enumerate,
    "analyze": cmd_analyze,
    "equiv": cmd_equiv,
    "qc": cmd_qc,
    "verify-paper": cmd_verify_paper,
}


# --- argument wiring -----------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="cycperm",
                     description="cyclic code automorphism and equivalence toolkit")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def common(p: _Parser, *, files: int = 0) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of stdout")
        if files:
            p.add_argument("--in", dest="inputs", action="append", default=[],
                           metavar="FILE", help="input code file (JSON)")

    p = sub.add_parser("factor", help="factor x^n - 1 into cyclotomic cosets "
                       "and minimal polynomials")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("enumerate", help="list all cyclic codes of length n")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget-dist", type=int, default=DEFAULT_DISTANCE_BUDGET)
    common(p)

    p = sub.add_parser("analyze", help="automorphism group report for one code")
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--defining-set", default=None,
                   help="comma separated exponents, e.g. 1,2,4")
    p.add_argument("--budget-nodes", type=int, default=NODE_BUDGET_DEFAULT)
    p.add_argument("--budget-dist", type=int, default=DEFAULT_DISTANCE_BUDGET)
    common(p, files=1)

    p = sub.add_parser("equiv", help="decide permutation equivalence of two codes")
    p.add_argument("--strategy", choices=["multiplier", "hp", "brute"],
                   default="hp")
    common(p, files=2)

    p = sub.add_parser("qc", help="block structure report for a quasi-cyclic code")
    common(p, files=1)

    p = sub.add_parser("verify-paper", help="recompute the published reference "
                       "values and report match/partial/mismatch per row")
    p.add_argument("--scope", action="append", default=[],
                   choices=[*SCOPES, "all"],
                   help="row families to run; repeatable; default: the fast "
                        "battery (tables, lemmas, qc)")
    common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    scope = tuple(args.scope) if getattr(args, "scope", None) is not None else ()
    if "all" in scope:
        scope = SCOPES
    elif scope:
        scope = tuple(s for s in SCOPES if s in scope)
    elif args.verb == "verify-paper":
        scope = _FAST_SCOPES
    ds = getattr(args, "defining_set", None)
    return RunConfig(
        verb=args.verb,
        inputs=tuple(getattr(args, "inputs", ()) or ()),
        q=getattr(args, "q", None),
        n=getattr(args, "n", None),
        defining_set=None if ds is None else _parse_defining_set(ds),
        strategy=getattr(args, "strategy", None),
        budget_nodes=getattr(args, "budget_nodes", NODE_BUDGET_DEFAULT),
        budget_dist=getattr(args, "budget_dist", DEFAULT_DISTANCE_BUDGET),
        out=args.out,
        seed=args.seed,
        scope=scope,
    )


def _emit(payload: dict | str, out: str | None) -> None:
    text = payload if isinstance(payload, str) else (
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        payload, status = _VERBS[config.verb](config)
    except _UsageError as exc:
        print(f"cycperm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"cycperm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(payload, config.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
