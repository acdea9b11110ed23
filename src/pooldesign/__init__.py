"""Pool sizes for Dorfman two-stage group testing: optimal, minimax, Bayesian.

The public names load lazily (PEP 562): `import pooldesign` imports no
submodule, and the first read of a name imports its home module only. The
name is then stored in this module's globals, so later reads are plain
attribute hits that never reach `__getattr__`.

`_HOMES` is the one list of public names, each mapped to the submodule that
defines it; `__all__` is its keys, and the submodules declare none.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in `__all__` order.
_HOMES = {
    "P0": "core",
    "Q0": "core",
    "expected_tests": "core",
    "samuels_optimal_k": "core",
    "optimal_expected_tests": "core",
    "loss": "core",
    "delta": "ranges",
    "larger_root": "ranges",
    "optimality_range": "ranges",
    "OptimalityRange": "ranges",
    "LossPoint": "minimax",
    "MinimaxResult": "minimax",
    "sup_loss_analytic": "minimax",
    "sup_loss_grid": "minimax",
    "minimax_group_size": "minimax",
    "PriorSpec": "bayes",
    "BayesResult": "bayes",
    "QuadratureError": "oracles",
    "jeffreys_constant": "oracles",
    "expected_tests_uniform": "oracles",
    "uniform_optimal_k": "bayes",
    "expected_tests_under_prior": "oracles",
    "bayes_optimal_k": "bayes",
    "relative_efficiency": "core",
    "generate_table": "efficiency",
    "check_table": "efficiency",
    "TableReport": "efficiency",
}

__all__ = list(_HOMES)


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # the next read is a dict hit, not this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
