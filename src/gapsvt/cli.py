"""Command-line front end.

Three subcommands: ``run`` executes a mechanism over a workload file and
emits one JSON record per run, ``verify`` drives the verification suites,
``budget`` prints a split table.  Exit codes are strict: 0 success/pass,
1 verification counterexample, 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from .core import BOT_KEY, TOP_KEY, Branch, NoiseKind, NoiseTape, Side, Workload
from .errors import DomainError, GapSvtError
from .mechanisms import (
    ADAPTIVE_GAP,
    MECHANISMS,
    budget_split_adaptive,
    budget_split_svt,
    check_workload_for,
    default_budget,
    run_mechanism,
    sample_run,
)
from .alignments import Mutation
from .verifier import (
    TRIAL_SUITES,
    TrialPlan,
    check_dp_exact,
    default_enumeration_instances,
    mc_privacy_estimate,
    run_trial_suites,
)

SUITES = (*TRIAL_SUITES, "dp-exact", "dp-mc")  # in the order "--suite all" runs them


def load_workload_dict(data) -> tuple[Workload, NoiseKind]:
    """A workload file's JSON: the fields ``Workload.from_json_dict`` reads,
    plus the ``noise`` its runs draw."""
    if isinstance(data, dict) and "noise" in data:
        data = dict(data)
        noise = data.pop("noise")
        try:
            kind = NoiseKind(noise)
        except ValueError:
            raise DomainError(f"field 'noise' must be 'laplace' or 'dlap', got {noise!r}")
    else:
        kind = None
    w = Workload.from_json_dict(data)
    if kind is None:
        raise DomainError("workload field 'noise' is missing")
    return w, kind


def _load_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise DomainError(f"{what} file {path} is not valid JSON: {e}")


def load_workload_file(path: str) -> tuple[Workload, NoiseKind]:
    return load_workload_dict(_load_json(path, "workload"))


def _dumps(obj, **kwargs) -> str:
    """Strict JSON: a non-finite number is a data error, never ``Infinity``."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        raise GapSvtError("the result holds a non-finite number; the workload values are too large for float arithmetic")


def _finite_floats(x):
    """``x`` with every non-finite float replaced by its name, e.g. ``"inf"``."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if isinstance(x, dict):
        return {k: _finite_floats(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_floats(v) for v in x]
    return x


def _answer_json(mechanism: str, answer) -> dict:
    if answer == BOT_KEY:
        return {"bot": True, "gap": 0} if mechanism == ADAPTIVE_GAP else {"bot": True}
    if answer == TOP_KEY:
        return {"top": True}
    branch, gap = answer
    return {"gap": gap, "branch": branch}


def _answer_text(answer) -> str:
    if answer == BOT_KEY:
        return "⊥"
    if answer == TOP_KEY:
        return "⊤"
    branch, gap = answer
    if branch == Branch.PLAIN.value:
        return f"⊤(gap={gap})"
    return f"⊤(gap={gap},{branch})"


def cmd_run(args) -> int:
    w, kind = load_workload_file(args.workload)
    side = Side.D if args.side == "d" else Side.DPRIME
    mechanism = args.mechanism
    budget = default_budget(mechanism, w)
    # a tape in the format a witness carries
    injected = NoiseTape.from_json_dict(_load_json(args.tape, "tape"), budget.layout, len(w)) if args.tape else None
    for r in range(args.runs):
        seed_r = args.seed + r
        if injected is not None:
            result = run_mechanism(mechanism, w, injected, side, budget)
            record_seed = None
        else:
            result, _ = sample_run(mechanism, w, side, seed_r, kind)
            record_seed = seed_r
        record = {
            "mechanism": mechanism,
            "seed": record_seed,
            "side": side.value,
            "answers": [_answer_json(mechanism, a) for a in result.output],
            "consumed": result.consumed,
        }
        if injected is not None:
            record["tape_file"] = args.tape
        if result.ledger is not None:
            record["cost_ledger"] = {
                "initial": float(result.ledger.initial),
                "running_cost": float(result.ledger.running_cost),
                "events": [
                    [e.index, e.branch.value, float(e.increment)] for e in result.ledger.events
                ],
            }
        if args.format == "json":
            print(_dumps(record, separators=(",", ":")))
        else:
            trace = " ".join(_answer_text(a) for a in result.output)
            print(f"run seed={record_seed} side={side.value}: {trace}")
    return 0


def cmd_budget(args) -> int:
    if args.mechanism == ADAPTIVE_GAP:
        b = budget_split_adaptive(args.epsilon, args.k)
        identity = b.epsilon0 + 2 * args.k * b.epsilon2 == b.epsilon
        print(
            f"eps0={float(b.epsilon0)} eps1={float(b.epsilon1)} eps2={float(b.epsilon2)}; "
            f"eps0+2k*eps2={float(b.epsilon0 + 2 * args.k * b.epsilon2)} "
            f"(exact={identity}); eps1<=eps2={b.epsilon1 <= b.epsilon2}"
        )
    else:
        b = budget_split_svt(args.epsilon, args.k)
        print(
            f"eps0={float(b.epsilon0)} eps1={float(b.epsilon1)}; "
            f"eps0+2k*eps1={float(b.epsilon0 + 2 * args.k * b.epsilon1)} (exact={b.identity_holds()})"
        )
    return 0


def _parse_mutation(name: str | None) -> Mutation | None:
    if not name:
        return None
    try:
        return Mutation(name)
    except ValueError:
        raise DomainError(
            f"unknown mutation {name!r}; expected one of "
            f"{', '.join(m.value for m in Mutation)}"
        )


def cmd_verify(args) -> int:
    mutation = _parse_mutation(args.inject_mutation)
    suites = SUITES if args.suite == "all" else (args.suite,)
    trial_suites = tuple(s for s in suites if s in TRIAL_SUITES)
    # the distribution suites share one read of the workload file, which the trial suites do not read
    loaded = load_workload_file(args.workload) if args.workload and suites != trial_suites else None
    if loaded is not None:  # refused before the trial suites run, not after
        if "dp-exact" in suites and loaded[1] is not NoiseKind.DLAP:
            raise DomainError("dp-exact needs a workload file with noise='dlap'")
        check_workload_for(args.mechanism, loaded[0])
    reports = []
    if trial_suites:
        plan = TrialPlan(args.mechanism, trials=args.trials, master_seed=args.seed, mutation=mutation)
        combined = run_trial_suites(plan, trial_suites)
        reports.extend(combined[s] for s in trial_suites)
    if "dp-exact" in suites:
        instances = [loaded[0]] if loaded else default_enumeration_instances(args.mechanism)[:4]
        reports.extend(check_dp_exact(args.mechanism, w)[0] for w in instances)
    if "dp-mc" in suites:
        w, kind = loaded or (default_enumeration_instances(args.mechanism)[0], NoiseKind.DLAP)
        samples = max(10**4, args.trials)
        reports.append(mc_privacy_estimate(args.mechanism, w, samples, args.seed, kind))
    verdict = "pass" if all(r.passed for r in reports) else "fail"
    if len(reports) == 1:
        payload = reports[0].to_json_dict()
    else:
        payload = {"verdict": verdict, "suites": [r.to_json_dict() for r in reports]}
    # a report may hold an infinite log ratio; it is a verdict, not a data error
    print(_dumps(_finite_floats(payload), indent=2, default=str))
    return 0 if verdict == "pass" else 1


def _seed(text: str) -> int:
    """A seed as numpy's generators take it: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _default_seed() -> int:
    """The seed when ``--seed`` is not given: ``GAPSVT_SEED``, else 0."""
    try:
        return _seed(os.environ.get("GAPSVT_SEED", "0"))
    except argparse.ArgumentTypeError as e:
        raise DomainError(f"GAPSVT_SEED {e}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsvt",
        description="Run threshold-report mechanisms over explicit noise tapes and verify their privacy properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mechanism over a workload file")
    p_run.add_argument("--mechanism", required=True, choices=MECHANISMS)
    p_run.add_argument("--workload", required=True, help="path to a workload JSON file")
    p_run.add_argument("--side", choices=("d", "dprime"), default="d")
    p_run.add_argument("--seed", type=_seed, help="default: GAPSVT_SEED, else 0")
    p_run.add_argument("--runs", type=_positive_int, default=1)
    p_run.add_argument("--format", choices=("json", "text"), default="json")
    p_run.add_argument("--tape", help=argparse.SUPPRESS)  # inject explicit noise values
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=(*SUITES, "all"),
    )
    p_verify.add_argument("--mechanism", required=True, choices=MECHANISMS)
    p_verify.add_argument("--trials", type=_positive_int, default=10000)
    p_verify.add_argument("--seed", type=_seed, help="default: GAPSVT_SEED, else 0")
    p_verify.add_argument("--workload", help="workload file for dp-exact / dp-mc")
    p_verify.add_argument("--inject-mutation", help=argparse.SUPPRESS)  # self-test corruptions
    p_verify.set_defaults(func=cmd_verify)

    p_budget = sub.add_parser("budget", help="print a budget split table")
    p_budget.add_argument("--epsilon", type=float, required=True)
    p_budget.add_argument("--k", type=int, required=True)
    p_budget.add_argument("--mechanism", required=True, choices=MECHANISMS)
    p_budget.set_defaults(func=cmd_budget)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:  # read GAPSVT_SEED only when a seed is used and not given
            args.seed = _default_seed()
        return args.func(args)
    except (GapSvtError, OSError, ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
