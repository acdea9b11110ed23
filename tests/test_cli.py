"""Tests for the command-line interface: outputs and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pooldesign
from pooldesign import QuadratureError, bayes, cli, minimax


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_path():
    """PYTHONPATH for a child process that imports this pooldesign."""
    src = str(Path(pooldesign.__file__).resolve().parent.parent)
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def _child_env(**env):
    """The environment of a child process that imports this pooldesign. It
    drops PYTHONUNBUFFERED unless env sets it, so the child writes
    block-buffered, as a process in a shell pipeline does."""
    inherited = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**inherited, **env, "PYTHONPATH": _src_path()}


def run_process(*argv, **env):
    """One `python -m pooldesign.cli` process, as a user would start it."""
    return subprocess.run(
        [sys.executable, "-m", "pooldesign.cli", *argv],
        env=_child_env(**env), capture_output=True, text=True, timeout=60,
    )


class TestOptimal:
    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "optimal", "--p", "0.02", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["k_optimal"] == 8
        assert rec["range_low"] == pytest.approx(0.0157726, abs=1e-7)
        assert rec["range_high"] == pytest.approx(0.0206682, abs=1e-7)

    def test_individual_testing(self, capsys):
        code, out, _ = run(capsys, "optimal", "--p", "0.5", "--format", "json")
        rec = json.loads(out)
        assert (code, rec["k_optimal"], rec["expected_tests"]) == (0, 1, 1.0)

    def test_markdown_default(self, capsys):
        code, out, _ = run(capsys, "optimal", "--p", "0.01")
        assert code == 0
        assert "| k_optimal | 11 |" in out

    def test_invalid_prevalence_exits_two(self, capsys):
        code, out, err = run(capsys, "optimal", "--p", "1.5", "--format", "json")
        assert code == 2
        assert err.strip()
        assert "error" in json.loads(out)


class TestMinimax:
    def test_default_is_eight(self, capsys):
        code, out, _ = run(capsys, "minimax", "--format", "json")
        rec = json.loads(out)
        assert (code, rec["k_minimax"]) == (0, 8)
        assert rec["worst_loss"] == pytest.approx(0.1386, abs=1e-3)

    def test_bounded(self, capsys):
        code, out, _ = run(
            capsys, "minimax", "--upper-bound", "0.15", "--format", "json"
        )
        assert json.loads(out)["k_minimax"] == 8
        code, out, _ = run(
            capsys, "minimax", "--upper-bound", "0.001", "--format", "json"
        )
        assert json.loads(out)["k_minimax"] == 65  # grid-verified

    def test_invalid_bound_exits_two(self, capsys):
        code, _, err = run(capsys, "minimax", "--upper-bound", "0")
        assert code == 2 and err.strip()

    def test_small_bound_exits_zero(self):
        for U, k in (("1e-12", 2000001), ("1e-22", 200000000001)):
            proc = run_process("minimax", "--upper-bound", U, "--format", "json")
            assert proc.returncode == 0 and not proc.stderr, U
            assert json.loads(proc.stdout)["k_minimax"] == k

    @pytest.mark.parametrize("U", ["3.9e-30", "1e-300", "1e-320", "5e-324"])
    def test_crossing_beyond_the_cap_exits_three(self, U):
        for method in ("analytic", "grid"):
            proc = run_process(
                "minimax", "--method", method, "--upper-bound", U, "--format", "json"
            )
            assert proc.returncode == 3, method
            assert "numerical failure" in proc.stderr
            assert "double precision" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert "error" in json.loads(proc.stdout)

    def test_oversized_grid_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(minimax, "_grid_base", None)  # building a grid fails
        code, _, err = run(
            capsys, "minimax", "--method", "grid", "--grid-step", "1e-12"
        )
        assert code == 2 and "1e7 grid points" in err

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf", "0.5"])
    def test_grid_step_out_of_range_exits_two(self, capsys, monkeypatch, step):
        # refused as given, not after shrinking it for small windows
        monkeypatch.setattr(minimax, "_grid_base", None)  # building a grid fails
        code, _, err = run(capsys, "minimax", "--method", "grid", "--grid-step", step)
        assert code == 2 and "(0, 1e-3]" in err


class TestBayes:
    def test_jeffreys_default(self, capsys):
        code, out, _ = run(capsys, "bayes", "--prior", "jeffreys", "--format", "json")
        assert (code, json.loads(out)["k_optimal"]) == (0, 13)

    def test_uniform_bounded(self, capsys):
        code, out, _ = run(
            capsys,
            "bayes", "--prior", "uniform", "--upper-bound", "0.01",
            "--format", "json",
        )
        assert json.loads(out)["k_optimal"] == 15

    def test_jeffreys_bounded(self, capsys):
        code, out, _ = run(
            capsys,
            "bayes", "--prior", "jeffreys", "--upper-bound", "0.05",
            "--format", "json",
        )
        assert json.loads(out)["k_optimal"] == 9

    def test_beta_requires_shapes(self, capsys):
        # a usage error: no JSON error record on stdout either
        for argv in (["--a", "2"], ["--b", "5"], []):
            for extra in ([], ["--format", "json"]):
                with pytest.raises(SystemExit) as exc:
                    cli.main(["bayes", "--prior", "beta", *argv, *extra])
                out, err = capsys.readouterr()
                assert (exc.value.code, out) == (2, "")
                assert err.startswith("usage: pooldesign bayes")
                assert err.endswith("error: --prior beta requires --a and --b\n")

    def test_infinite_shape_exits_two(self, capsys):
        code, out, err = run(
            capsys, "bayes", "--prior", "beta", "--a", "inf", "--b", "1",
            "--format", "json",
        )
        assert code == 2 and "finite" in err
        assert "error" in json.loads(out)

    def test_prior_whose_mass_underflows_is_answered(self, capsys):
        # Beta(100, 1) puts about U^100 of its mass on (0, U]: 0.0 in
        # doubles, but the search forms only its log
        code, out, _ = run(
            capsys, "bayes", "--prior", "beta", "--a", "100", "--b", "1",
            "--upper-bound", "1e-6", "--format", "json",
        )
        assert (code, json.loads(out)["k_optimal"]) == (0, 1005)

    def test_divergent_continued_fraction_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(bayes, "_CF_MAX_TERMS", 1)
        code, _, err = run(
            capsys, "bayes", "--prior", "jeffreys", "--upper-bound", "0.3"
        )
        assert code == 3
        assert "numerical failure" in err and "a=0.5" in err

    @pytest.mark.parametrize(
        "a, b, U",
        [
            ("1e-50", "1e-51", "1"),
            ("2.2124659076189647e-177", "2.2222761887293804e-178", "1"),
            ("1e18", "5e17", "0.9"),
            ("1e300", "1e300", "0.5"),
        ],
        ids=["tiny-1e-50", "tiny-2e-177", "huge-1e18", "huge-1e300"],
    )
    def test_shapes_beyond_double_precision_exit_three(self, a, b, U):
        proc = run_process(
            "bayes", "--prior", "beta", "--a", a, "--b", b, "--upper-bound", U,
            "--format", "json",
        )
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr and "double precision" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "double precision" in json.loads(proc.stdout)["error"]

    def test_quadrature_failure_exits_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureError("did not converge", 0.1)

        monkeypatch.setattr(bayes, "bayes_optimal_k", boom)
        code, _, err = run(capsys, "bayes", "--prior", "jeffreys")
        assert code == 3 and "numerical failure" in err


class TestRange:
    def test_pool_of_eight(self, capsys):
        code, out, _ = run(capsys, "range", "--k", "8", "--format", "json")
        rec = json.loads(out)
        assert code == 0
        assert rec["p_low"] == pytest.approx(0.0157726, abs=1e-7)

    def test_pool_of_two_exits_two(self, capsys):
        code, _, err = run(capsys, "range", "--k", "2")
        assert code == 2 and "never optimal" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["range", "--k", str(10**13 + 1)],
            ["range", "--k", str(10**200)],
            ["optimal", "--p", "1e-27"],
        ],
        ids=["range-1e13+1", "range-1e200", "optimal-1e-27"],
    )
    def test_unresolvable_range_exits_three(self, argv):
        # past 10**13 a range nears the rounding error of its endpoints
        proc = run_process(*argv)
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr
        assert "double precision" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("k", [10**6, 10**13])
    def test_large_range_is_answered(self, capsys, k):
        code, out, _ = run(capsys, "range", "--k", str(k), "--format", "json")
        rec = json.loads(out)
        assert code == 0 and rec["k"] == k and 0.0 < rec["p_low"] < rec["p_high"]

    @pytest.mark.parametrize("p, k", [("1e-11", 316228), ("1e-12", 10**6 + 1)])
    def test_small_prevalence_is_answered(self, capsys, p, k):
        code, out, _ = run(capsys, "optimal", "--p", p, "--format", "json")
        rec = json.loads(out)
        assert code == 0 and rec["k_optimal"] == k
        assert rec["range_low"] <= float(p) <= rec["range_high"]


class TestTable:
    def test_check_passes_for_the_worst_case_table(self, capsys):
        code, out, _ = run(capsys, "table", "--table", "1", "--check")
        assert code == 0 and "all cells match" in out

    def test_check_passes_for_the_moderate_prevalence_table(self, capsys):
        code, _, _ = run(capsys, "table", "--table", "5", "--check")
        assert code == 0

    def test_known_mismatches_exit_four(self, capsys):
        code, _, err = run(capsys, "table", "--table", "3", "--check")
        assert code == 4
        assert err.count("mismatch in T3") == 3

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "table", "--table", "3", "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 4  # header + one row per design family
        assert all(len(line.split(",")) == 10 for line in lines)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_check_json_is_one_record_of_the_mismatches(self, capsys, n):
        plain = run(capsys, "table", "--table", str(n), "--check")
        code, out, err = run(capsys, "table", "--table", str(n), "--check",
                             "--format", "json")
        rec = json.loads(out)
        assert code == plain[0] == (4 if rec["mismatches"] else 0)
        assert err == plain[2]  # the stderr lines of every format
        mismatches = pooldesign.check_table(pooldesign.generate_table(f"T{n}"))
        assert rec == {"command": "table", "table": f"T{n}", "mismatches": [
            {"row": m.row, "column": m.column, "computed": m.computed,
             "expected": m.expected} for m in mismatches
        ]}

    @pytest.mark.parametrize("output", ["markdown", "csv"])
    def test_check_writes_the_plain_line_in_other_formats(self, capsys, output):
        code, out, err = run(capsys, "table", "--table", "1", "--check",
                             "--format", output)
        assert (code, out, err) == (0, "table 1: all cells match\n", "")

    def test_monkeypatched_golden_exits_four(self, capsys, monkeypatch):
        from pooldesign import efficiency

        forged = {**efficiency.GOLDEN["T1"]}
        forged["worst_p"] = forged["worst_p"][:-1] + [(0.9, 4)]
        monkeypatch.setitem(efficiency.GOLDEN, "T1", forged)
        code, _, err = run(capsys, "table", "--table", "1", "--check")
        assert code == 4 and "mismatch in T1" in err


# text over every code point, lone surrogates included, with the characters
# that JSON escapes drawn often
TEXT = st.text(
    st.one_of(st.integers(0, 0x7F), st.integers(0, 0x10FFFF)).map(chr)
    | st.sampled_from('"\\/\x7f\ud800\udfff\U0001f600')
)
NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-(10**400), 10**400),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)
# the shape of a `table --format json` payload
TABLE_PAYLOADS = st.fixed_dictionaries({
    "table": TEXT,
    "title": TEXT,
    "columns": st.lists(TEXT, max_size=4),
    "rows": st.lists(
        st.fixed_dictionaries({"label": TEXT, "values": st.lists(NUMBERS, max_size=4)}),
        max_size=3,
    ),
})


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "minimax", "--upper-bound", "0.05", "--format", "json"
            )
            outs.append(out)
        assert outs[0] == outs[1]

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "optimal", "--p", "0.02", "--format", "json")
        rec = json.loads(out)
        assert json.loads(json.dumps(rec)) == rec

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(JSON_VALUES, TABLE_PAYLOADS))
    def test_encoder_writes_what_json_dumps_writes(self, value):
        assert cli._json(value) == json.dumps(value)

    def test_error_record_of_a_non_ascii_message(self, capsys, monkeypatch):
        # an ImportError names the path of the install, which may be any text
        message = 'No module named "numpy" in C:\\Users\\Zoë\tπ\x7f\U0001f600'

        def missing(*args, **kwargs):
            raise ImportError(message)

        monkeypatch.setattr(minimax, "minimax_group_size", missing)
        code, out, err = run(capsys, "minimax", "--format", "json")
        assert code == 3 and err.startswith("missing dependency")
        assert out == json.dumps({"error": message}) + "\n"

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_closed_stdout_exits_two_with_one_error_line(self, fmt, buffered):
        env = _child_env() if buffered else _child_env(PYTHONUNBUFFERED="1")
        read, write = os.pipe()
        os.close(read)  # a write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pooldesign.cli", "table", "--table", "4",
                 "--format", fmt],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimal", "--p", "0.02", "--grid-step", "1e-5"],
            ["bayes", "--prior", "jeffreys", "--grid-step", "1e-5"],
            ["range", "--k", "8", "--patience", "5"],
            ["bayes", "--prior", "jeffreys", "--quad-tol", "1e-12"],
            ["minimax", "--patience", "5"],
            ["bayes", "--prior", "jeffreys", "--patience", "5"],
            ["table", "--table", "1", "--patience", "5"],
            ["bayes", "--prior", "jeffreys", "--b", "3"],
            ["bayes", "--prior", "uniform", "--a", "2"],
            ["minimax", "--grid-step", "1e-5"],
        ],
    )
    def test_flags_a_command_would_ignore_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_no_config_file_is_read(self, tmp_path):
        cfg = tmp_path / "pool.cfg"
        cfg.write_text("format = csv\n")
        proc = run_process("range", "--k", "8", POOLDESIGN_CONFIG=str(cfg))
        assert proc.returncode == 0 and proc.stdout.startswith("### range")
        for argv in (["--config", "x", "range"], ["range", "--config", "x"]):
            proc = run_process(*argv, "--k", "8")
            assert proc.returncode == 2 and "Traceback" not in proc.stderr


# argv that a command refuses itself, after parsing, and its message
FLAG_RULES = [
    (["bayes", "--prior", "jeffreys", "--b", "3"],
     "--a and --b apply only to --prior beta, not jeffreys"),
    (["bayes", "--prior", "uniform", "--a", "2"],
     "--a and --b apply only to --prior beta, not uniform"),
    (["minimax", "--grid-step", "1e-5"], "--grid-step applies only to --method grid"),
    # refused before the prior or the bound is validated
    (["bayes", "--prior", "jeffreys", "--a", "-1", "--upper-bound", "0"],
     "--a and --b apply only to --prior beta, not jeffreys"),
    (["bayes", "--prior", "beta", "--b", "-1", "--upper-bound", "0"],
     "--prior beta requires --a and --b"),
    (["minimax", "--method", "analytic", "--grid-step", "0", "--upper-bound", "2"],
     "--grid-step applies only to --method grid"),
]
SYNOPSIS = {
    "bayes": "pooldesign bayes --prior {uniform,jeffreys,beta} [--a FLOAT] "
             "[--b FLOAT] [--upper-bound FLOAT] [--format {csv,json,markdown}]",
    "minimax": "pooldesign minimax [--upper-bound FLOAT] [--method {analytic,grid}] "
               "[--grid-step FLOAT] [--format {csv,json,markdown}]",
}

RULES_PROBE = """
import contextlib, io, json, sys
from pooldesign import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit as exc:
            codes.append(exc.code)
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "pooldesign"))
"""


class TestFlagRules:
    @pytest.mark.parametrize("argv, message", FLAG_RULES)
    def test_usage_error_of_the_command(self, capsys, argv, message):
        for extra in ([], ["--format", "json"]):  # no JSON error record either
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + extra)
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert err == f"usage: {SYNOPSIS[argv[0]]}\npooldesign: error: {message}\n"

    def test_refused_before_a_solver_loads(self):
        argvs = [argv + ["--format", "json"] for argv, _ in FLAG_RULES]
        proc = subprocess.run(
            [sys.executable, "-S", "-c", RULES_PROBE, json.dumps(argvs)],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        codes, modules = proc.stdout.splitlines()
        assert codes == repr([2] * len(FLAG_RULES))
        assert modules == "['pooldesign', 'pooldesign.cli']"


class TestParser:
    @pytest.mark.parametrize(
        "argv, named",
        [
            ([], "command"),
            (["bogus"], "'bogus'"),
            (["minimax", "--upper", "0.05"], "--upper"),  # no prefix matching
            (["bayes", "--prior", "jeffreys", "--upper", "0.05"], "--upper"),
            (["range", "--k"], "--k"),
            (["range", "--k", "x"], "--k"),
            (["range", "--k", "8.0"], "--k"),
            (["optimal", "--p", "0.02x"], "--p"),
            (["bayes", "--prior", "flat"], "--prior"),
            (["table", "--table", "0"], "--table"),
            (["optimal"], "--p"),
            (["bayes", "--upper-bound", "0.1"], "--prior"),
            (["optimal", "--p", "0.02", "extra"], "extra"),
            (["range", "8"], "8"),
            (["minimax", "--grid-step", "1e-5"], "--grid-step"),
        ],
    )
    def test_usage_error_exits_two(self, capsys, argv, named):
        for extra in ([], ["--format", "json"]):  # no JSON error record either
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + extra)
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert err.startswith("usage: pooldesign")
            error = err.splitlines()[-1]
            assert error.startswith("pooldesign: error: ") and named in error

    def test_joined_value_reads_as_the_next_argument(self, capsys):
        joined = run(capsys, "optimal", "--p=0.02")
        assert joined == run(capsys, "optimal", "--p", "0.02")
        joined = run(capsys, "table", "--table=01", "--format=csv")
        assert joined == run(capsys, "table", "--table", "1", "--format", "csv")

    def test_last_repeat_wins_and_values_may_start_with_a_dash(self, capsys):
        code, out, _ = run(
            capsys, "optimal", "--p", "0.5", "--p", "0.02", "--format", "json"
        )
        assert (code, json.loads(out)["k_optimal"]) == (0, 8)
        code, _, err = run(capsys, "minimax", "--upper-bound", "-0.5")
        assert code == 2 and err == "error: upper bound must lie in (0, 1], got -0.5\n"

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h"], ["bayes", "--help"], ["range", "--k", "8", "-h"],
         ["range", "--bogus", "-h"]],  # help wins over an unknown argument
    )
    def test_help_lists_every_command_and_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0
        for command in ("optimal", "minimax", "bayes", "range", "table"):
            assert f"\n{command}: " in out and f"pooldesign {command} " in out
        for flag in ("--prior {uniform,jeffreys,beta}", "[--a FLOAT]", "[--b FLOAT]",
                     "[--upper-bound FLOAT]", "[--format {csv,json,markdown}]"):
            assert flag in out

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["pooldesign", "range", "--k", "8", "--format", "json"]
        monkeypatch.setattr(sys, "argv", argv)
        assert cli.main() == 0
        assert json.loads(capsys.readouterr().out)["k"] == 8

    def test_prefix_of_a_flag_exits_two_without_a_traceback(self):
        proc = run_process("minimax", "--upper", "0.05")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--upper" in proc.stderr and "Traceback" not in proc.stderr


IMPORT_PROBE = """
import contextlib, io, sys
from pooldesign import cli
argvs = [
    ["optimal", "--p", "0.02"],
    ["range", "--k", "8"],
    ["minimax", "--upper-bound", "0.05"],
    ["bayes", "--prior", "beta", "--a", "2", "--b", "5", "--upper-bound", "0.3"],
    ["table", "--table", "4", "--check"],
]
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    codes = [cli.main(argv) for argv in argvs]
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from pooldesign import PriorSpec, expected_tests_under_prior
print(expected_tests_under_prior(5, PriorSpec.uniform(0.3)))
"""

NUMPY_PROBE = """
import contextlib, io, sys
import pooldesign
from pooldesign import cli
def run(argvs):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return [cli.main(argv) for argv in argvs]
print(run([
    ["optimal", "--p", "0.02"],
    ["range", "--k", "8"],
    ["bayes", "--prior", "uniform", "--upper-bound", "0.1"],
    ["bayes", "--prior", "jeffreys"],
    ["bayes", "--prior", "beta", "--a", "2", "--b", "5", "--upper-bound", "0.3"],
    ["minimax", "--upper-bound", "0.05"],
]))
print(run([["table", "--table", str(n), "--check"] for n in range(1, 6)]))
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
print(run([["minimax", "--method", "grid"]]))
"""

BLOCKED_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None  # as if not installed
from pooldesign import cli
out = []
for argv in [
    ["optimal", "--p", "0.02"],
    ["range", "--k", "8"],
    ["bayes", "--prior", "uniform", "--upper-bound", "0.1"],
    ["bayes", "--prior", "jeffreys"],
    ["bayes", "--prior", "beta", "--a", "2", "--b", "5", "--upper-bound", "0.3"],
    ["minimax", "--upper-bound", "0.05"],
    *(["table", "--table", str(n)] for n in range(1, 6)),
    *(["table", "--table", str(n), "--check"] for n in range(1, 6)),
    ["minimax", "--method", "grid"],
    ["minimax", "--method", "grid", "--format", "json"],
]:
    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an escaping exception fails the probe
    out.append([code, err.getvalue(), sink.getvalue() if "json" in argv else ""])
print(json.dumps(out))
"""

LOAD_PROBE = """
import contextlib, io, sys
def loaded():
    return {m for m in sys.modules if m.split(".")[0] == "pooldesign"}
seen, steps = set(), []
def step(argvs=()):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(argv) for argv in argvs]
    new = sorted(loaded() - seen)
    seen.update(new)
    steps.append([codes, new])
import pooldesign
step()
from pooldesign import cli
step([["optimal", "--p", "0.02"], ["range", "--k", "8", "--format", "csv"]])
step([
    ["bayes", "--prior", "uniform", "--upper-bound", "0.1", "--format", "csv"],
    ["bayes", "--prior", "jeffreys"],
    ["bayes", "--prior", "beta", "--a", "2", "--b", "5", "--upper-bound", "0.3"],
])
step([["minimax", "--upper-bound", "0.05"]])
step([["table", "--table", str(n), "--check"] for n in range(1, 6)])
step([["table", "--table", "1"], ["table", "--table", "2", "--format", "csv"]])
json_before = "json" in sys.modules  # recorded before this probe imports json
step([["optimal", "--p", "0.02", "--format", "json"]])
json_after = "json" in sys.modules
heavy = ("dataclasses", "inspect", "typing", "numbers", "numpy", "scipy",
         "argparse", "gettext", "locale", "json", "__future__",
         "encodings.utf_16_be")
heavy = sorted(m for m in sys.modules if m in heavy or m.split(".")[0] in heavy)
import json
for s in steps:
    print(json.dumps(s))
print(json.dumps(heavy))
print(json.dumps([json_before, json_after]))
"""


class TestImports:
    def test_each_subcommand_loads_only_its_modules(self):
        # -S: no site hooks, which may import typing and hide a regression
        proc = subprocess.run(
            [sys.executable, "-S", "-c", LOAD_PROBE],
            env=_child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        *steps, heavy, json_loaded = map(json.loads, proc.stdout.splitlines())
        assert steps == [
            [[], ["pooldesign"]],  # import pooldesign loads no submodule
            [[0, 0], ["pooldesign.cli", "pooldesign.core", "pooldesign.ranges"]],
            [[0, 0, 0], ["pooldesign.bayes"]],
            [[0], ["pooldesign.minimax"]],
            [[0, 4, 4, 4, 0], ["pooldesign.efficiency"]],  # T2-T4 have pinned cells
            [[0, 0], []],
            [[0], []],
        ]
        # no argparse, gettext, locale, json, __future__ or UTF-16 codec either
        assert heavy == []
        # no output loads json, not even JSON output
        assert json_loaded == [False, False]

    def test_no_subcommand_loads_scipy(self):
        # only the quadrature oracle needs scipy, and it imports it itself
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=_child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules, oracle = proc.stdout.splitlines()
        assert codes == "[0, 0, 0, 0, 4]"  # T4 has pinned mismatch cells
        assert scipy_modules == "[]"
        assert float(oracle) == pytest.approx(
            pooldesign.expected_tests_uniform(5, 0.3), abs=1e-10
        )

    def test_every_subcommand_runs_without_numpy_and_scipy(self):
        # both are optional (the oracles extra); only the grid oracle needs
        # numpy, and without it the CLI exits 3 with a message, not a traceback
        proc = subprocess.run(
            [sys.executable, "-c", BLOCKED_PROBE],
            env=_child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        assert [code for code, _, _ in runs] == [0] * 11 + [0, 4, 4, 4, 0] + [3, 3]
        for code, err, _ in runs[-2:]:
            assert err.startswith("missing dependency") and "oracles" in err
            assert "numpy" in err and "Traceback" not in err
        assert "numpy" in json.loads(runs[-1][2])["error"]

    def test_no_solver_command_loads_numpy(self):
        # only the grid oracle builds arrays
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE],
            env=_child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes, table_codes, numpy_modules, grid_codes = proc.stdout.splitlines()
        assert codes == "[0, 0, 0, 0, 0, 0]"
        assert table_codes == "[0, 4, 4, 4, 0]"  # T2-T4 have pinned mismatch cells
        assert numpy_modules == "[]"
        assert grid_codes == "[0]"
