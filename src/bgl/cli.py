"""Batch verification driver.

Each verb runs its fixed subset of the suite's criteria; a --config only
overrides their parameters.  Exit code 0 iff every checked invariant in the
run passed, 1 if one failed, 2 on bad input.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DomainError
from .report import to_table, to_text
from .scenario import Scenario, load_scenario
from .suite import VERBS, run_criteria


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgl",
        description="verify grand Lebesgue norm and maximal-inequality bounds "
                    "against brute-force oracles",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in VERBS:
        p = sub.add_parser(kind, help=f"run the {kind} criteria")
        p.add_argument("--config", default=None, help="scenario config file")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("text", "table"), default="text",
                       help="structured text (diffable) or a human table")
        p.add_argument("--p-max", type=float, default=None, dest="p_max",
                       help="cap for p-grids on unbounded supports; overrides [grid] p_max")
        p.add_argument("--tol", type=float, default=None,
                       help="domination tolerance; overrides [chain] tol")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.config) if args.config else Scenario(args.kind, 1)
        if scn.kind != args.kind:
            raise DomainError(f"config is a {scn.kind!r} scenario, verb was {args.kind!r}")
        # the flags come last, so each overrides its config key
        flags = [(flag, {param: value}) for flag, param, value in
                 (("--p-max", "p_max", args.p_max), ("--tol", "tol", args.tol))
                 if value is not None]
        report = run_criteria(scn.kind, scn.seed if args.seed is None else args.seed,
                              (*scn.overrides, *flags))
        rendered = to_text(report) if args.format == "text" else to_table(report)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(rendered)
            except OSError as exc:
                raise DomainError(f"cannot write {args.out}: {exc.strerror}") from exc
        else:
            sys.stdout.write(rendered)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
