"""Command-line interface: optimal, minimax, bayes, range, and table commands.

Exit codes: 0 success, 2 usage or invalid input, 3 numerical failure or
a missing optional dependency (numpy for `minimax --method grid`), 4
golden-table mismatch. Output that cannot be written (an OSError) exits 2
with one stderr line and no JSON error record. Output is deterministic;
human-readable formats print 6 significant digits, machine formats keep
full precision.

`_COMMANDS` holds each command's handler, help line and flags, and
`--format` is added to every command after it, as its last flag; `_parse`
reads argv by it, without argparse, and `--help` prints it. Each handler
first refuses the flags its command would ignore or lacks (`--grid-step`
without `--method grid`, `--a`/`--b` with a named prior, `--prior beta`
without both), then imports the solver modules it runs, so a call loads
only those: `optimal` and `range` load core and ranges, `bayes` loads
bayes, `minimax` loads minimax, and `table` loads efficiency. It returns
its record, which `main` prints; `table` prints its own output and returns
its exit code. `table --check` writes each mismatched cell to stderr in
every format, and under `--format json` one record of them to stdout. JSON
output comes from `_json`, which writes what `json.dumps` writes by
default, without importing `json`.
"""

import sys

_REQUIRED = object()  # the default of a flag that must be given


def _fmt(value, machine: bool) -> str:
    if isinstance(value, float):
        return format(value, ".17g") if machine else format(value, ".6g")
    return str(value)


# json.dumps escapes these by name, other characters outside " " to "~" as \uXXXX
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}
_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _quote(text: str) -> str:
    """text as a JSON string, escaped to ASCII as json.dumps escapes it."""
    out = []
    for c in text:
        o = ord(c)
        if o > 0xFFFF:  # a pair of UTF-16 surrogates, without the codec's import
            o -= 0x10000
            out.append(f"\\u{0xD800 | o >> 10:04x}\\u{0xDC00 | o & 0x3FF:04x}")
        else:
            out.append(_ESCAPES.get(c) or (c if " " <= c <= "~" else f"\\u{o:04x}"))
    return '"' + "".join(out) + '"'


def _json(value) -> str:
    """value as json.dumps(value) writes it: separators ", " and ": ", keys
    in insertion order, ASCII only, and NaN and Infinity for the specials.
    It stands in for json, whose import costs more than the output it writes."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):  # not repr: numpy 2 writes np.float64(...)
        text = float.__repr__(value)
        return _SPECIALS.get(text, text)
    if isinstance(value, dict):
        items = (f"{_quote(key)}: {_json(item)}" for key, item in value.items())
        return "{" + ", ".join(items) + "}"
    return "[" + ", ".join(map(_json, value)) + "]"  # a list or tuple


def _emit_record(name: str, fields: dict, output: str) -> None:
    if output == "json":
        print(_json({"command": name, **fields}))
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
        print(_json(payload))
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


def _cmd_optimal(args: dict) -> dict:
    from . import core, ranges

    p = args["p"]
    k = core.samuels_optimal_k(p)
    rng = ranges.optimality_range(k)
    return {"p": p, "k_optimal": k, "expected_tests": core.optimal_expected_tests(p),
            "range_low": rng.p_low, "range_high": rng.p_high}


def _cmd_minimax(args: dict) -> dict:
    if args["grid_step"] is not None and args["method"] != "grid":
        _usage_error("--grid-step applies only to --method grid", "minimax")
    from . import minimax

    step = {} if args["grid_step"] is None else {"grid_step": args["grid_step"]}
    res = minimax.minimax_group_size(args["upper_bound"], args["method"], **step)
    return {"upper_bound": res.upper_bound, "method": res.method,
            "k_minimax": res.k_minimax, "worst_p": res.worst_point.p_star,
            "worst_loss": res.worst_point.sup_loss}


def _cmd_bayes(args: dict) -> dict:
    name, shapes, U = args["prior"], (args["a"], args["b"]), args["upper_bound"]
    if name != "beta" and shapes != (None, None):
        _usage_error(f"--a and --b apply only to --prior beta, not {name}", "bayes")
    if None in shapes and name == "beta":
        _usage_error("--prior beta requires --a and --b", "bayes")
    from .bayes import PriorSpec, bayes_optimal_k

    # uniform and jeffreys are PriorSpec's classmethods of those names
    prior = PriorSpec(*shapes, U) if name == "beta" else getattr(PriorSpec, name)(U)
    res = bayes_optimal_k(prior)
    return {"prior": name, "a": prior.a, "b": prior.b, "upper_bound": prior.upper,
            "k_optimal": res.k_opt, "expected_tests": res.expected_tests_at_opt}


def _cmd_range(args: dict) -> dict:
    from . import ranges

    return ranges.optimality_range(args["k"])._asdict()  # the fields k, p_low, p_high


def _cmd_table(args: dict) -> int:
    from . import efficiency

    report = efficiency.generate_table(f"T{args['table']}")
    if not args["check"]:
        _emit_table(report, args["format"])
        return 0
    mismatches = efficiency.check_table(report)
    for m in mismatches:  # in every format: bench and tools parse these lines
        print(
            f"mismatch in {m.table_id} row={m.row} col={m.column}: "
            f"computed {m.computed!r}, expected {m.expected!r}",
            file=sys.stderr,
        )
    if args["format"] == "json":
        cells = [{"row": m.row, "column": m.column, "computed": m.computed,
                  "expected": m.expected} for m in mismatches]
        print(_json({"command": "table", "table": report.table_id, "mismatches": cells}))
    elif not mismatches:
        print(f"table {args['table']}: all cells match")
    return 4 if mismatches else 0


# command: (handler, help line, {flag: (kind, default)}). A kind is float or
# int, a tuple or range of the choices, or bool for a flag that takes no value.
_COMMANDS = {
    "optimal": (_cmd_optimal, "optimal pool size for a known prevalence",
                {"--p": (float, _REQUIRED)}),
    "minimax": (_cmd_minimax, "pool size minimizing worst-case regret",
                {"--upper-bound": (float, 1.0),
                 "--method": (("analytic", "grid"), "analytic"),
                 "--grid-step": (float, None)}),
    "bayes": (_cmd_bayes, "pool size minimizing prior-mean cost",
              {"--prior": (("uniform", "jeffreys", "beta"), _REQUIRED),
               "--a": (float, None), "--b": (float, None),
               "--upper-bound": (float, 1.0)}),
    "range": (_cmd_range, "prevalence interval where a pool size is optimal",
              {"--k": (int, _REQUIRED)}),
    "table": (_cmd_table, "regenerate a reference table",
              {"--table": (range(1, 6), _REQUIRED), "--check": (bool, False)}),
}
for _, _, _flags in _COMMANDS.values():  # every command takes it, last
    _flags["--format"] = (("csv", "json", "markdown"), "markdown")
_USAGE = f"pooldesign {{{','.join(_COMMANDS)}}} [--flag value ...]"


def _synopsis(command: str) -> str:
    words = [f"pooldesign {command}"]
    for flag, (kind, default) in _COMMANDS[command][2].items():
        if not isinstance(kind, type):
            flag += " {" + ",".join(map(str, kind)) + "}"
        elif kind is not bool:
            flag += " " + kind.__name__.upper()
        words.append(flag if default is _REQUIRED else f"[{flag}]")
    return " ".join(words)


def _usage_error(message: str, command: str | None = None, flag: str | None = None):
    usage = _synopsis(command) if command else _USAGE
    error = f"argument {flag}: {message}" if flag else message
    print(f"usage: {usage}\npooldesign: error: {error}", file=sys.stderr)
    raise SystemExit(2)


def _help():
    print(f"usage: {_USAGE}\n\nPool sizes for Dorfman two-stage group testing.")
    for name, (_, line, _) in _COMMANDS.items():
        print(f"\n{name}: {line}\n  {_synopsis(name)}")
    print("\nFlags are named in full; a value follows its flag or '=' (--p=0.02).")
    raise SystemExit(0)


def _parse(argv) -> tuple[str, dict]:
    """The command and its flag values, keyed by flag name without dashes."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help()
    if command not in _COMMANDS:
        what = f"invalid command: {command!r}" if argv else "a command is required"
        _usage_error(f"{what} (choose from {', '.join(map(repr, _COMMANDS))})")
    flags, given, stray = _COMMANDS[command][2], {}, []
    # --flag=value reads as --flag value; a value may begin with "-"
    pieces = [a.split("=", 1) if a.startswith("--") else [a] for a in argv[1:]]
    words = iter([word for piece in pieces for word in piece])
    for flag in words:
        if flag in ("-h", "--help"):
            _help()
        if flag not in flags:  # refused after the rest, so a later --help wins
            stray.append(flag)
            continue
        kind = flags[flag][0]
        if kind is bool:
            given[flag] = True
            continue
        if (text := next(words, None)) is None:
            _usage_error("expected one argument", command, flag)
        convert = kind if isinstance(kind, type) else type(kind[0])
        try:
            value = convert(text)
        except ValueError:
            _usage_error(f"invalid {convert.__name__} value: {text!r}", command, flag)
        if convert is not kind and value not in kind:
            choices = ", ".join(map(repr, kind))
            error = f"invalid choice: {value!r} (choose from {choices})"
            _usage_error(error, command, flag)
        given[flag] = value  # the last of a repeated flag wins
    if stray:
        _usage_error(f"unrecognized arguments: {' '.join(stray)}", command)
    missing = [f for f, (_, d) in flags.items() if d is _REQUIRED and f not in given]
    if missing:
        required = ", ".join(missing)
        _usage_error(f"the following arguments are required: {required}", command)
    args = {f[2:].replace("-", "_"): given.get(f, d) for f, (_, d) in flags.items()}
    return command, args


def _fail(exc: Exception, label: str, output: str, code: int) -> int:
    print(f"{label}: {exc}", file=sys.stderr)
    if isinstance(exc, OSError):  # stdout failed: what it holds goes to devnull at exit
        import os

        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    elif output == "json":
        print(_json({"error": str(exc)}))
    return code


def main(argv=None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        result = _COMMANDS[command][0](args)
        if isinstance(result, dict):  # the record of every command but table
            _emit_record(command, result, args["format"])
            result = 0
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return result
    except (ValueError, OSError) as exc:
        return _fail(exc, "error", args["format"], 2)
    except RuntimeError as exc:
        return _fail(exc, "numerical failure", args["format"], 3)
    except ImportError as exc:  # the oracles' numpy comes with the oracles extra
        label = "missing dependency (pip install 'pooldesign[oracles]')"
        return _fail(exc, label, args["format"], 3)


if __name__ == "__main__":
    sys.exit(main())
