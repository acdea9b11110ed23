"""Dump the answers a pooldesign checkout gives, for an identity check.

    python3 tools/compare_answers.py ROOT OUT.json

ROOT is a checkout (its `src/` and `bench/` are put first on the import
path). Run the script on two checkouts, for example a parent commit and a
change, and compare the two dumps with `cmp`: the change keeps every answer
exactly when the files are byte-identical. For a change that may move
floats by an ulp, `tools/diff_answers.py` requires the integers and strings
to be identical and reports the largest relative float difference per key.

The dump holds `larger_root` for k = 2..5000, the minimax answer and worst
point (analytic and grid) on 608 log-spaced bounds U in [1e-6, 1] and on
bounds at and one ulp either side of the breakpoints 1 - larger_root(m)
for m = 3..400, `sup_loss_analytic` on a (k, U) grid, the uniform and
Jeffreys Bayes sizes, and every query of design-sweep seeds 1-10 (two
blocks each), with a `RuntimeError` recorded by its class name. The
`bayes_work` key counts the calls of `bayes._beta_cf` (continued fractions),
`bayes._log_beta` and `bayes._branch_and_bound` (the searches that reach the
general engine) over the sweep's Bayes queries, by wrapping the three
module names, so a change that takes more of any shows in the diff of two
dumps (it works on any checkout that has all three). The `minimax_work`
key counts the calls of `minimax._sup_loss` (suprema), `minimax._regret_floor`
and `minimax._branch_and_bound` (the searches that reach the general engine)
over the sweep's minimax queries in the same way, which the local
certificate ends without the engine. `minimax_wide_work` holds the same
three counts over the analytic answers of `minimax_wide`'s 25 000 bounds,
among them the bounds below about 6e-29 where the certificate falls back
to the engine, so the work of that fallback shows too. Four keys
hold the Bayes answer and cost at the edges: `bayes_near_one` (the uniform
prior on 100 bounds U in [0.9, 1) and at U = 1 - 1e-3 .. 1 - 1e-6),
`bayes_small` (uniform and Jeffreys at 41 bounds U in [1e-10, 1e-6]),
`bayes_beta` (300 seeded priors with a in [0.05, 20], b in [0.05, 50] and
U in [1e-6, 1], all log-uniform) and `bayes_tail` (300 seeded priors with
a > 1 at high prevalence: a - 1 in [1e-6, 50], b in [0.01, 50] and U in
[1e-3, 1], all log-uniform, where no size beats k = 1 from some size
on). A fifth, `bayes_flat`, holds the slowest searches: priors whose
costs are nearly flat, which the cost floor ends, namely the Jeffreys and
uniform priors on 60 bounds U in [0.85, 0.999] and 200 seeded priors with
a in [1, 5], b in [0.5, 200] and U in [0.5, 0.95]; and 200 seeded priors
with a in [0.05, 0.5], b in [10, 200] and U in [0.005, 0.15], whose start
values take long continued fractions (a and b log-uniform, U uniform).
`bayes_limits` holds Beta(a, b) answers near U = 1 for a in {0.5, 2}, b in
{0.1, 0.01, 0.001} and U = 1 - 10^-e for e = 4..10, where the start
values can need fractions that do not converge, and Beta(0.9408, 0.1226)
on (0, 0.9998], whose costs are nearly flat; a `RuntimeError` is recorded
by its class name.
`bayes_massless` holds Beta(a, b) answers where the mass on (0, U]
underflows: 60 seeded priors with a in [10, 3000], b in [0.01, 1000] and
U in [1e-12, 0.9], all log-uniform, kept where
log(U^a (1-U)^b / B(a, b)) < -800, and Beta(1e300, 1e5) at U = 1 - 10^-e
for e = 1..15. Each mass is 0.0 as a double, which the search never
forms: the seeded priors answer sizes from 3 to about 1e6 and the others
k = 1 (a `RuntimeError` is recorded by its class name).
`bayes_tiny` holds the uniform and Jeffreys answers at U = 1.3e-29,
1.1e-29, 8e-30, 5e-30, 4.1e-30, 3e-30, 2e-30 and 1e-30, near the smallest
bounds the Bayes search answers, with a `RuntimeError` recorded by its
class name. `minimax_small` holds the minimax answer
on 77 log-spaced bounds U in [1e-29, 1e-10], at U = 6.3e-30, 6e-30,
5e-30, 4.5e-30 and 4.1e-30, near the smallest bound the search answers,
and at U = 3.9e-30, 1e-300 and 5e-324, below it; `grid_small` holds the
grid method's answer at U = 1e-16, 1e-17, ..., 1e-29 and at the five
bounds from 6e-30 to 3.9e-30. A `RuntimeError` in either is recorded by
its class name. `ranges` holds the endpoints of `optimality_range(k)` as
`.hex()` for k = 3..5000 and 94 log-spaced k from 10**3.7 up to 10**13,
the largest size it answers, and the refusal one past it. Its `records`
key holds the `repr` of real answers of each record type, which pins
their names, fields and field order.

Its `sites` key holds, for the first site-batch chunk of seeds 1-5 (1280
p) and at P0, P0 one ulp either side, 0.3, 0.9, 1e-12, 1e-300 and 5e-324,
the p, `samuels_optimal_k(p)`, the `.hex()` of `optimal_expected_tests(p)`,
`expected_tests(8, p)`, `relative_efficiency(8, p)`,
`relative_efficiency(13, p)` and `loss(8, p)`, and the range of k*(p) as in
`ranges`; then the `repr` of each site function on numpy inputs, which pins
the numpy result types. Its `errors` key holds, for each public scalar
function with one argument x (and the other valid) or with both x, the
exception class and message, or the `repr` of the result, at x = 0.0,
-1.0, 1.0, nan, inf, True, 8.0, 0, -3, None and '0.5': the checks, their
order and their messages. It then holds the same for pool sizes k = 2**1024
and 10**400, past the largest double, in `expected_tests`, `loss`,
`relative_efficiency`, `delta`, `expected_tests_uniform`, `sup_loss_grid`
and `expected_tests_under_prior` (uniform prior) at x = 0, 5e-324, 1e-300
and 0.5 for p or U, and in `larger_root`.

`oracle_reach` holds, for the uniform, Jeffreys, Beta(2, 5), Beta(0.2, 30)
and Beta(3, 0.4) priors on 25 log-spaced bounds U in [4.1e-30, 1e-6], the
solver's answer k and cost and `expected_tests_under_prior` at k - 1, k
and k + 1 (k - 1 left out at k = 1), with a `RuntimeError` (a refusal or
a `QuadratureError`) recorded by its class name: how far the quadrature
oracle follows the solver towards the smallest bounds it answers. The
same rows follow for the oracle's other edges: Beta(100, 1) on
(0, 1e-6], whose mass underflows a double; 20 seeded priors at U = 1 with
a in [0.05, 20] and b in [0.05, 1], log-uniform, where the density is
singular at p = 1; the uniform prior at U = 1 - 10^-e for e = 1..6, where
kU is large; and the Jeffreys prior, Beta(2, 0.1), Beta(0.5, 0.1),
Beta(1, 0.1), Beta(0.3, 0.2) and Beta(0.05, 0.05) at U = 1 - 10^-e for
e = 2, 4, ..., 14, where the oracle may refuse.

`minimax_wide` holds the minimax answer and worst point of both methods on
25 000 bounds U log-uniform in [4.1e-30, 1] (seed 17), where the analytic
search answers; its grid searches make the dump take about three minutes
on a 2-CPU x86-64 host.

Its `cli` key holds, for each argv of a fixed list, the argv, the exit code,
stdout and stderr of `pooldesign.cli.main`: every subcommand in the three
formats, `range` and `optimal` down to k = 10**6 and p = 1e-12, `minimax`
(both methods) down to U = 4.1e-30, `table --table 1..5` with and without
`--check` and with `--check --format json`, and argv that exit 2 (usage or
invalid input) and 3 (numerical failure), among them `minimax` below the
smallest bound it answers, with the grid method at bounds whose grid step
U/1e5 underflows, and beta priors whose shapes are too small or too large
for double precision, next to
Beta(1e308, 1e5) on (0, 1], which is answered. Argv for the parser itself
come last: `--help` and `bayes --help`, `--flag=value`, `--table 01`, and
argv it refuses (no command or an unknown one, an unknown flag or a prefix
of one, a missing or malformed value, a stray argument). The `SystemExit`
code of `--help` or of a refused argv stands in for the exit code, and an
exception that escapes `cli.main` is recorded by its class name. So the
identity of the command line is a `cmp` of two dumps as well.

Its `surface` key holds `pooldesign.__version__` and, for each name of
`pooldesign.__all__` and for `efficiency.Mismatch` and `efficiency.TABLE_IDS`,
the type name of the object, its `__module__` (null for a float or a
tuple) and then, for a callable, its `inspect.signature`, its
`inspect.getdoc` and its `_fields` (null for a function), or else its
`repr`. So one `cmp` also shows that the public names, their home modules,
signatures, record fields, docstrings and version are unchanged.
"""

import contextlib
import inspect
import io
import itertools
import json
import math
import random
import sys

import numpy as np

root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/src", root + "/bench", root]
import pooldesign as pd  # noqa: E402
import workloads  # noqa: E402
from pooldesign import bayes as bayes_module, cli, efficiency  # noqa: E402
from pooldesign import minimax as minimax_module  # noqa: E402

Us = [float(U) for U in np.logspace(-6, 0, 608)]
bps = []
for m in range(3, 401):
    U = 1.0 - pd.larger_root(m)
    bps += [math.nextafter(U, 0.0), U, math.nextafter(U, 1.0)]


def mm(U, method="analytic"):
    r = pd.minimax_group_size(U, method)
    return [r.k_minimax, r.worst_point.p_star, r.worst_point.sup_loss]


def mm_small(U, method="analytic"):
    try:
        return [U, *mm(U, method)]
    except RuntimeError as exc:
        return [U, type(exc).__name__]


def bayes(a, b, U):
    try:
        r = pd.bayes_optimal_k(pd.PriorSpec(a, b, U))
    except RuntimeError as exc:
        return [a, b, U, type(exc).__name__]
    return [a, b, U, r.k_opt, r.expected_tests_at_opt]


def opt_range(k):
    try:
        r = pd.optimality_range(k)
    except RuntimeError as exc:
        return [k, type(exc).__name__]
    return [k, r.p_low.hex(), r.p_high.hex()]


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


rng = random.Random(11)
SHAPES = ((0.05, 20.0), (0.05, 50.0), (1e-6, 1.0))  # ranges of a, b and U
BETA = [tuple(log_uniform(rng, lo, hi) for lo, hi in SHAPES) for _ in range(300)]
TAIL_SHAPES = ((1e-6, 50.0), (0.01, 50.0), (1e-3, 1.0))  # ranges of a - 1, b and U
TAIL = []
for _ in range(300):
    a_m1, b, U = (log_uniform(rng, lo, hi) for lo, hi in TAIL_SHAPES)
    TAIL.append((1.0 + a_m1, b, U))
NEAR_ONE = [float(U) for U in np.linspace(0.9, 1.0, 101)[:-1]] + [
    1.0 - 10.0**-e for e in (3, 4, 5, 6)
]
rng = random.Random(13)  # draws of its own, so the keys above keep theirs
FLAT_SHAPES = [((1.0, 5.0), (0.5, 200.0), (0.5, 0.95))] * 200 + [
    ((0.05, 0.5), (10.0, 200.0), (0.005, 0.15))
] * 200  # ranges of a, b and U
FLAT = [(a, a, float(U)) for a in (0.5, 1.0) for U in np.linspace(0.85, 0.999, 60)]
for a_range, b_range, U_range in FLAT_SHAPES:
    FLAT.append(
        (log_uniform(rng, *a_range), log_uniform(rng, *b_range), rng.uniform(*U_range))
    )

rng = random.Random(19)  # draws of its own, so the keys above keep theirs
MASSLESS = []
while len(MASSLESS) < 60:
    a, b, U = (
        log_uniform(rng, lo, hi) for lo, hi in ((10.0, 3000.0), (0.01, 1000.0), (1e-12, 0.9))
    )
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    if a * math.log(U) + b * math.log1p(-U) - log_beta < -800.0:
        MASSLESS.append((a, b, U))
MASSLESS += [(1e300, 1e5, 1.0 - 10.0**-e) for e in range(1, 16)]


# the smallest bounds answered, and the largest refused, 3.9e-30
NEAR_LIMIT = [6e-30, 5e-30, 4.5e-30, 4.1e-30, 3.9e-30]


def sup(k, U):
    p = pd.sup_loss_analytic(k, U)
    return [k, U, p.p_star, p.sup_loss]


SITE_EDGES = [
    pd.P0,
    math.nextafter(pd.P0, 0.0),
    math.nextafter(pd.P0, 1.0),
    0.3,
    0.9,
    1e-12,
    1e-300,
    5e-324,
]
# the first chunk of each seed: a block holds one ("sites", ps) query
SITE_PS = [
    p for seed in range(1, 6) for p in next(workloads.blocks("site-batch", seed))[0][1]
] + SITE_EDGES


def site(p):
    k = pd.samuels_optimal_k(p)
    costs = (
        pd.optimal_expected_tests(p),
        pd.expected_tests(8, p),
        pd.relative_efficiency(8, p),
        pd.relative_efficiency(13, p),
        pd.loss(8, p),
    )
    return [p.hex(), k, *(x.hex() for x in costs), opt_range(k)]


# numpy inputs give numpy results where the arithmetic passes them through
NUMPY_SITES = [
    pd.samuels_optimal_k(np.float64(0.02)),
    pd.optimal_expected_tests(np.float64(0.02)),
    pd.expected_tests(np.int64(8), 0.02),
    pd.expected_tests(8, np.float64(0.02)),
    pd.relative_efficiency(np.int64(8), 0.02),
    pd.relative_efficiency(8, np.float64(0.02)),
    pd.loss(np.int64(8), 0.02),
    pd.loss(np.int64(8), 0.0),
    pd.optimality_range(np.int64(8)),
    pd.optimality_range(np.int32(3)),
    pd.optimality_range(np.int64(1)),
]

# each public scalar function with one bad argument x, or with two
BAD = [0.0, -1.0, 1.0, math.nan, math.inf, True, 8.0, 0, -3, None, "0.5"]
SCALAR_CALLS = {
    "samuels_optimal_k(x)": pd.samuels_optimal_k,
    "optimal_expected_tests(x)": pd.optimal_expected_tests,
    "optimality_range(x)": pd.optimality_range,
    "larger_root(x)": pd.larger_root,
    "expected_tests(x, 0.02)": lambda x: pd.expected_tests(x, 0.02),
    "expected_tests(8, x)": lambda x: pd.expected_tests(8, x),
    "expected_tests(x, x)": lambda x: pd.expected_tests(x, x),
    "relative_efficiency(x, 0.02)": lambda x: pd.relative_efficiency(x, 0.02),
    "relative_efficiency(8, x)": lambda x: pd.relative_efficiency(8, x),
    "relative_efficiency(x, x)": lambda x: pd.relative_efficiency(x, x),
    "loss(x, 0.02)": lambda x: pd.loss(x, 0.02),
    "loss(8, x)": lambda x: pd.loss(8, x),
    "loss(x, x)": lambda x: pd.loss(x, x),
    "delta(x, 0.5)": lambda x: pd.delta(x, 0.5),
    "delta(8, x)": lambda x: pd.delta(8, x),
}


HUGE_K = {"2**1024": 2**1024, "10**400": 10**400}
HUGE_CALLS = {
    "expected_tests(k, x)": pd.expected_tests,
    "loss(k, x)": pd.loss,
    "relative_efficiency(k, x)": pd.relative_efficiency,
    "delta(k, x)": pd.delta,
    "expected_tests_uniform(k, x)": pd.expected_tests_uniform,
    "sup_loss_grid(k, x)": pd.sup_loss_grid,
    "expected_tests_under_prior(k, uniform(x))": lambda k, x: (
        pd.expected_tests_under_prior(k, pd.PriorSpec.uniform(x))
    ),
}
REACH_SHAPES = ((1.0, 1.0), (0.5, 0.5), (2.0, 5.0), (0.2, 30.0), (3.0, 0.4))
REACH_US = [float(U) for U in np.geomspace(4.1e-30, 1e-6, 25)]


def quadrature(k, prior):
    try:
        return pd.expected_tests_under_prior(k, prior)
    except RuntimeError as exc:  # QuadratureError among them
        return type(exc).__name__


def reach(a, b, U):
    prior = pd.PriorSpec(a, b, U)
    try:
        r = pd.bayes_optimal_k(prior)
    except RuntimeError as exc:
        return [a, b, U, type(exc).__name__]
    k = r.k_opt
    quad = [quadrature(j, prior) for j in (k - 1, k, k + 1) if j > 0]
    return [a, b, U, k, r.expected_tests_at_opt, *quad]


rng = random.Random(17)  # draws of its own, so the keys above keep theirs
WIDE = [log_uniform(rng, 4.1e-30, 1.0) for _ in range(25_000)]
rng = random.Random(7)  # draws of its own, so the keys above keep theirs
REACH_EDGES = (
    [(100.0, 1.0, 1e-6)]
    + [(log_uniform(rng, 0.05, 20.0), log_uniform(rng, 0.05, 1.0), 1.0) for _ in range(20)]
    + [(1.0, 1.0, 1.0 - 10.0**-e) for e in range(1, 7)]
    + [
        (a, b, 1.0 - 10.0**-e)
        for a, b in ((0.5, 0.5), (2.0, 0.1), (0.5, 0.1), (1.0, 0.1), (0.3, 0.2), (0.05, 0.05))
        for e in range(2, 15, 2)
    ]
)


def error(call, x):
    try:
        return ["returned", repr(call(x))]
    except Exception as exc:  # the class and message are what is compared
        return [type(exc).__name__, str(exc)]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # the parser rejects the argv, or prints help
            code = exc.code
        except Exception as exc:  # a crash, recorded by its class name
            code = type(exc).__name__
    return [argv, code, out.getvalue(), err.getvalue()]


GRID = ["minimax", "--method", "grid"]
CLI_FORMATTED = [  # each runs in the three formats
    ["optimal", "--p", "0.02"],
    ["optimal", "--p", "0.5"],
    ["minimax"],
    ["minimax", "--upper-bound", "0.05"],
    ["minimax", "--upper-bound", "1e-12"],
    ["minimax", "--upper-bound", "1e-22"],
    GRID,
    GRID + ["--upper-bound", "0.05", "--grid-step", "1e-5"],
    ["bayes", "--prior", "uniform", "--upper-bound", "0.01"],
    ["bayes", "--prior", "jeffreys"],
    ["bayes", "--prior", "beta", "--a", "2", "--b", "5", "--upper-bound", "0.3"],
    ["bayes", "--prior", "beta", "--a", "1e308", "--b", "1e5"],
    ["range", "--k", "8"],
    ["range", "--k", "1000000"],
    ["optimal", "--p", "1e-11"],
    ["optimal", "--p", "1e-12"],
    *(["table", "--table", str(n)] for n in range(1, 6)),
    # exit 2
    ["optimal", "--p", "1.5"],
    ["minimax", "--upper-bound", "0"],
    ["minimax", "--grid-step", "1e-5"],
    *(GRID + ["--grid-step", s] for s in ("0", "-0.5", "nan", "inf", "0.5", "1e-12")),
    ["bayes", "--prior", "beta"],
    ["bayes", "--prior", "beta", "--a", "inf", "--b", "1"],
    ["bayes", "--prior", "jeffreys", "--b", "3"],
    ["bayes", "--prior", "uniform", "--a", "2"],
    ["range", "--k", "2"],
    *(
        argv + ["--upper-bound", U]
        for argv in (["minimax"], GRID)
        for U in ("6e-30", "5e-30", "4.5e-30", "4.1e-30")
    ),
    # exit 3
    ["minimax", "--upper-bound", "3.9e-30"],
    *(GRID + ["--upper-bound", U] for U in ("3.9e-30", "1e-320", "5e-324")),
    # answered (k = 1005), though the mass on (0, 1e-6] underflows
    ["bayes", "--prior", "beta", "--a", "100", "--b", "1", "--upper-bound", "1e-6"],
    ["range", "--k", "10000000000001"],
    *(
        ["bayes", "--prior", "beta", "--a", a, "--b", b, "--upper-bound", U]
        for a, b, U in (
            ("1e-50", "1e-51", "1"),
            ("2.2124659076189647e-177", "2.2222761887293804e-178", "1"),
            ("1e18", "5e17", "0.9"),
            ("1e300", "1e300", "0.5"),
        )
    ),
]
CLI_PLAIN = [
    *(["table", "--table", str(n), "--check"] for n in range(1, 6)),
    *(["table", "--table", str(n), "--check", "--format", "json"] for n in range(1, 6)),
    ["--help"],
    ["bayes", "--help"],
    ["minimax", "--upper-bound=0.05", "--format=json"],
    ["table", "--table", "01", "--check"],
    # exit 2 from the parser
    ["table", "--table", "6"],
    ["optimal", "--p", "0.02", "--grid-step", "1e-5"],
    ["--config", "x", "optimal", "--p", "0.02"],
    [],
    ["bogus"],
    ["minimax", "--upper", "0.05"],
    ["range", "--k"],
    ["range", "--k", "x"],
    ["optimal", "--p", "0.02", "extra"],
]


def surface(name, obj):
    head = [name, type(obj).__name__, getattr(obj, "__module__", None)]
    if callable(obj):
        return head + [str(inspect.signature(obj)), inspect.getdoc(obj),
                       getattr(obj, "_fields", None)]
    return head + [repr(obj)]


PUBLIC = [(name, getattr(pd, name)) for name in pd.__all__] + [
    ("efficiency.Mismatch", efficiency.Mismatch),
    ("efficiency.TABLE_IDS", efficiency.TABLE_IDS),
]


res = {
    "surface": {
        "version": pd.__version__,
        "names": [surface(name, obj) for name, obj in PUBLIC],
    },
    "roots": [pd.larger_root(k).hex() for k in range(2, 5001)],
    "ranges": [
        opt_range(k)
        for k in [*range(3, 5001), *(round(10**e) for e in np.linspace(3.7, 13, 94))]
        + [10**13 + 1]
    ],
    "minimax": [mm(U) for U in Us],
    "minimax_bp": [mm(U) for U in bps],
    "uniform": [pd.uniform_optimal_k(U) for U in Us],
    "jeffreys": [pd.bayes_optimal_k(pd.PriorSpec.jeffreys(U)).k_opt for U in Us],
    "bayes_near_one": [bayes(1.0, 1.0, U) for U in NEAR_ONE],
    "bayes_small": [
        bayes(a, a, float(U)) for a in (1.0, 0.5) for U in np.logspace(-10, -6, 41)
    ],
    "bayes_beta": [bayes(*prior) for prior in BETA],
    "bayes_tail": [bayes(*prior) for prior in TAIL],
    "bayes_flat": [bayes(*prior) for prior in FLAT],
    "bayes_limits": [
        bayes(a, b, 1.0 - 10.0**-e)
        for a in (0.5, 2.0)
        for b in (0.1, 0.01, 0.001)
        for e in range(4, 11)
    ]
    + [bayes(0.9408, 0.1226, 0.9998)],
    "bayes_massless": [bayes(*prior) for prior in MASSLESS],
    "bayes_tiny": [
        bayes(a, a, U)
        for a in (1.0, 0.5)
        for U in (1.3e-29, 1.1e-29, 8e-30, 5e-30, 4.1e-30, 3e-30, 2e-30, 1e-30)
    ],
    "minimax_small": [
        mm_small(U)
        for U in [*map(float, np.logspace(-29, -10, 77)), 6.3e-30, *NEAR_LIMIT]
        + [1e-300, 5e-324]
    ],
    "grid_small": [
        mm_small(U, "grid") for U in [*(10.0**-e for e in range(16, 30)), *NEAR_LIMIT]
    ],
    "grid": [mm(U, "grid") for U in (1.0, 0.05, 0.001)],
    "grid_bp": [mm(U, "grid") for U in bps[::120] + bps[1::120] + bps[2::120]],
    "sup": [
        sup(k, U)
        for U in bps[::3] + [1.0, pd.P0, 0.05, 1e-3, 1e-4, 1e-6]
        for k in range(1, 2001, 7)
    ],
    "sweep": [],
    "sites": [site(p) for p in SITE_PS] + [repr(x) for x in NUMPY_SITES],
    "errors": [[name, repr(x), error(call, x)] for name, call in SCALAR_CALLS.items() for x in BAD]
    + [
        [f"{name} at k = {k_name}", repr(x), error(lambda x: call(k, x), x)]
        for name, call in HUGE_CALLS.items()
        for k_name, k in HUGE_K.items()
        for x in (0.0, 5e-324, 1e-300, 0.5)
    ]
    + [[f"larger_root(k) at k = {k_name}", "k", error(pd.larger_root, k)] for k_name, k in HUGE_K.items()],
    "oracle_reach": [reach(a, b, U) for a, b in REACH_SHAPES for U in REACH_US]
    + [reach(*prior) for prior in REACH_EDGES],
    "minimax_wide": [[U, *mm(U), *mm(U, "grid")] for U in WIDE],
    "records": [
        repr(r)
        for r in (
            pd.optimality_range(1),
            pd.optimality_range(8),
            pd.sup_loss_analytic(5),
            pd.sup_loss_analytic(30, 0.01),
            pd.minimax_group_size(0.05),
            pd.minimax_group_size(0.05, "grid"),
            pd.PriorSpec(2.0, 5.0),
            pd.bayes_optimal_k(pd.PriorSpec.jeffreys(0.3)),
            *pd.check_table(pd.generate_table("T3")),
            pd.generate_table("T1"),
            pd.generate_table("T5"),
        )
    ],
    "cli": [
        run_cli(argv + ["--format", fmt])
        for argv in CLI_FORMATTED
        for fmt in ("markdown", "csv", "json")
    ]
    + [run_cli(argv) for argv in CLI_PLAIN],
}


def count_calls(module, names):
    """A dict of call counts of the functions that module looks up by these
    names, which are wrapped from here on."""
    work = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            work[_name] += 1
            return _real(*args, **kwargs)

        setattr(module, name, counted)
    return work


# count the continued fractions, log B(a, b) calls and engine runs of the
# sweep's Bayes queries, and the suprema, regret floors and engine runs of
# its minimax queries, by wrapping the module names the searches look up;
# the minimax counts are taken over the analytic answers of minimax_wide
# first, and then started again at zero for the sweep
res["bayes_work"] = count_calls(bayes_module, ("_beta_cf", "_log_beta", "_branch_and_bound"))
res["minimax_work"] = count_calls(
    minimax_module, ("_sup_loss", "_regret_floor", "_branch_and_bound")
)
for U in WIDE:
    pd.minimax_group_size(U)
res["minimax_wide_work"] = dict(res["minimax_work"])
res["minimax_work"].update(dict.fromkeys(res["minimax_work"], 0))
for seed in range(1, 11):
    for block in itertools.islice(workloads.blocks("design-sweep", seed), 2):
        for q in block:
            try:
                if q[0] == "minimax":
                    res["sweep"].append([q, *mm(q[1])])
                elif q[0] == "uniform":
                    res["sweep"].append([q, pd.uniform_optimal_k(q[1])])
                elif q[0] == "prior":
                    r = pd.bayes_optimal_k(pd.PriorSpec(*q[1:]))
                    res["sweep"].append([q, r.k_opt, r.expected_tests_at_opt])
            except RuntimeError as exc:
                res["sweep"].append([q, type(exc).__name__])
with open(out, "w") as f:
    json.dump(res, f)
