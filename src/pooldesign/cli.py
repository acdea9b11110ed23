"""Command-line interface: optimal, minimax, bayes, range, and table commands.

Exit codes: 0 success, 2 usage or invalid input, 3 numerical failure or
a missing optional dependency (numpy for `minimax --method grid`), 4
golden-table mismatch. Output is deterministic; human-readable formats
print 6 significant digits, machine formats keep full precision.

Each handler imports the solver modules it runs, so a call loads only
those: `optimal` and `range` load core and ranges, `bayes` loads bayes,
`minimax` loads minimax, and `table` loads efficiency.
"""

from __future__ import annotations

import argparse
import json
import sys

FORMATS = ("csv", "json", "markdown")


def _fmt(value, machine: bool) -> str:
    if isinstance(value, float):
        return format(value, ".17g") if machine else format(value, ".6g")
    return str(value)


def _emit_record(name: str, fields: dict, output: str) -> None:
    if output == "json":
        print(json.dumps({"command": name, **fields}, sort_keys=False))
    elif output == "csv":
        print(",".join(fields))
        print(",".join(_fmt(v, machine=True) for v in fields.values()))
    else:
        print(f"### {name}")
        print("| field | value |")
        print("| --- | --- |")
        for key, value in fields.items():
            print(f"| {key} | {_fmt(value, machine=False)} |")


def _emit_table(report, output: str) -> None:
    if output == "json":
        payload = {
            "table": report.table_id,
            "title": report.title,
            "columns": report.columns,
            "rows": [{"label": label, "values": vals} for label, vals in report.rows],
        }
        print(json.dumps(payload, sort_keys=False))
    elif output == "csv":
        print(",".join(["row"] + report.columns))
        for label, vals in report.rows:
            print(",".join([label] + [_fmt(v, machine=True) for v in vals]))
    else:
        print(f"### {report.title}")
        print("| " + " | ".join(["row"] + report.columns) + " |")
        print("|" + " --- |" * (len(report.columns) + 1))
        for label, vals in report.rows:
            cells = [_fmt(v, machine=False) for v in vals]
            print("| " + " | ".join([label] + cells) + " |")


def _cmd_optimal(args) -> int:
    from . import core, ranges

    p = args.p
    k = core.samuels_optimal_k(p)
    rng = ranges.optimality_range(k)
    _emit_record(
        "optimal",
        {
            "p": p,
            "k_optimal": k,
            "expected_tests": core.optimal_expected_tests(p),
            "range_low": rng.p_low,
            "range_high": rng.p_high,
        },
        args.format,
    )
    return 0


def _cmd_minimax(args) -> int:
    from . import minimax

    step = {} if args.grid_step is None else {"grid_step": args.grid_step}
    res = minimax.minimax_group_size(args.upper_bound, args.method, **step)
    _emit_record(
        "minimax",
        {
            "upper_bound": res.upper_bound,
            "method": res.method,
            "k_minimax": res.k_minimax,
            "worst_p": res.worst_point.p_star,
            "worst_loss": res.worst_point.sup_loss,
        },
        args.format,
    )
    return 0


def _cmd_bayes(args) -> int:
    from .bayes import PriorSpec, bayes_optimal_k

    if args.prior == "uniform":
        prior = PriorSpec.uniform(args.upper_bound)
    elif args.prior == "jeffreys":
        prior = PriorSpec.jeffreys(args.upper_bound)
    else:
        if args.a is None or args.b is None:
            raise ValueError("--prior beta requires --a and --b")
        prior = PriorSpec(args.a, args.b, args.upper_bound)
    res = bayes_optimal_k(prior)
    _emit_record(
        "bayes",
        {
            "prior": args.prior,
            "a": prior.a,
            "b": prior.b,
            "upper_bound": prior.upper,
            "k_optimal": res.k_opt,
            "expected_tests": res.expected_tests_at_opt,
        },
        args.format,
    )
    return 0


def _cmd_range(args) -> int:
    from . import ranges

    rng = ranges.optimality_range(args.k)
    _emit_record(
        "range", {"k": rng.k, "p_low": rng.p_low, "p_high": rng.p_high}, args.format
    )
    return 0


def _cmd_table(args) -> int:
    from . import efficiency

    report = efficiency.generate_table(f"T{args.table}")
    if args.check:
        mismatches = efficiency.check_table(report)
        if mismatches:
            for m in mismatches:
                print(
                    f"mismatch in {m.table_id} row={m.row} col={m.column}: "
                    f"computed {m.computed!r}, expected {m.expected!r}",
                    file=sys.stderr,
                )
            return 4
        print(f"table {args.table}: all cells match")
        return 0
    _emit_table(report, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pooldesign",
        description="Pool sizes for Dorfman two-stage group testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default="markdown")

    p_opt = sub.add_parser("optimal", help="optimal pool size for a known prevalence")
    p_opt.add_argument("--p", type=float, required=True)
    add_common(p_opt)
    p_opt.set_defaults(func=_cmd_optimal)

    p_mm = sub.add_parser("minimax", help="pool size minimizing worst-case regret")
    p_mm.add_argument("--upper-bound", dest="upper_bound", type=float, default=1.0)
    p_mm.add_argument("--method", choices=("analytic", "grid"), default="analytic")
    p_mm.add_argument("--grid-step", dest="grid_step", type=float, default=None)
    add_common(p_mm)
    p_mm.set_defaults(func=_cmd_minimax)

    p_bayes = sub.add_parser("bayes", help="pool size minimizing prior-mean cost")
    p_bayes.add_argument(
        "--prior", choices=("uniform", "jeffreys", "beta"), required=True
    )
    p_bayes.add_argument("--a", type=float, default=None)
    p_bayes.add_argument("--b", type=float, default=None)
    p_bayes.add_argument("--upper-bound", dest="upper_bound", type=float, default=1.0)
    add_common(p_bayes)
    p_bayes.set_defaults(func=_cmd_bayes)

    p_rng = sub.add_parser("range", help="prevalence interval where a pool size is optimal")
    p_rng.add_argument("--k", type=int, required=True)
    add_common(p_rng)
    p_rng.set_defaults(func=_cmd_range)

    p_tab = sub.add_parser("table", help="regenerate a reference table")
    p_tab.add_argument("--table", type=int, choices=range(1, 6), required=True)
    p_tab.add_argument("--check", action="store_true")
    add_common(p_tab)
    p_tab.set_defaults(func=_cmd_table)

    return parser


def _fail(exc: Exception, label: str, output: str, code: int) -> int:
    print(f"{label}: {exc}", file=sys.stderr)
    if output == "json":
        print(json.dumps({"error": str(exc)}))
    return code


def _ignored_flag(args) -> str | None:
    """The message for a flag the chosen command would ignore, if one is set."""
    if args.command == "bayes" and args.prior != "beta":
        if args.a is not None or args.b is not None:
            return f"--a and --b apply only to --prior beta, not {args.prior}"
    if args.command == "minimax" and args.method != "grid":
        if args.grid_step is not None:
            return "--grid-step applies only to --method grid"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ignored = _ignored_flag(args)
    if ignored:
        parser.error(ignored)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(exc, "error", args.format, 2)
    except RuntimeError as exc:
        return _fail(exc, "numerical failure", args.format, 3)
    except ImportError as exc:  # the oracles' numpy comes with the oracles extra
        label = "missing dependency (pip install 'pooldesign[oracles]')"
        return _fail(exc, label, args.format, 3)


if __name__ == "__main__":
    sys.exit(main())
