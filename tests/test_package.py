"""Tests for the lazy package exports, the named-tuple records and the
test sources themselves."""

import ast
import copy
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pooldesign
from pooldesign import (
    BayesResult,
    LossPoint,
    MinimaxResult,
    OptimalityRange,
    PriorSpec,
    TableReport,
)
from pooldesign.efficiency import Mismatch


class TestLazyExports:
    def test_all_keeps_the_27_names(self):
        assert len(pooldesign.__all__) == len(set(pooldesign.__all__)) == 27

    @pytest.mark.parametrize("name", pooldesign.__all__)
    def test_name_is_the_object_of_its_home_module(self, name):
        home = importlib.import_module(f"pooldesign.{pooldesign._HOMES[name]}")
        assert getattr(pooldesign, name) is getattr(home, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from pooldesign import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(pooldesign.__all__)

    def test_dir_lists_every_name(self):
        assert set(pooldesign.__all__) <= set(dir(pooldesign))
        assert "__version__" in dir(pooldesign)

    def test_unknown_attribute_raises_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pooldesign.no_such_name

    def test_first_read_stores_the_name(self, monkeypatch):
        # later reads must be dict hits, not __getattr__ calls per access
        monkeypatch.delitem(vars(pooldesign), "samuels_optimal_k", raising=False)
        value = pooldesign.samuels_optimal_k
        assert vars(pooldesign)["samuels_optimal_k"] is value


# Each first read of a public name, and each known-prevalence call, starts
# from an empty package, as in a fresh interpreter: the probe first drops
# every pooldesign module from sys.modules. It prints the pooldesign modules
# that each read and each call leave loaded.
LOAD_PROBE = """
import json, sys
def fresh():
    for m in [m for m in sys.modules if m.split(".")[0] == "pooldesign"]:
        del sys.modules[m]
    import pooldesign
    return pooldesign
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "pooldesign")
calls = {"relative_efficiency": (8, 0.01), "samuels_optimal_k": (0.01,),
         "optimal_expected_tests": (0.01,), "optimality_range": (8,)}
called = {}
for name, args in calls.items():
    getattr(fresh(), name)(*args)
    called[name] = loaded()
reads = {}
for name in fresh().__all__:
    getattr(fresh(), name)
    reads[name] = loaded()
print(json.dumps([called, reads]))
"""

# The pooldesign modules that each home module loads: itself and its imports
HOME_LOADS = {
    "core": ["core"],
    "ranges": ["core", "ranges"],
    "minimax": ["core", "minimax"],
    "bayes": ["bayes", "core"],
    "oracles": ["core", "oracles"],
    "efficiency": ["bayes", "core", "efficiency", "minimax"],
}


@pytest.fixture(scope="module")
def first_loads():
    src = str(Path(pooldesign.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOAD_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestFirstLoads:
    def test_known_prevalence_calls_load_only_core_and_ranges(self, first_loads):
        called, _ = first_loads
        core = ["pooldesign", "pooldesign.core"]
        assert called == {
            "relative_efficiency": core,
            "samuels_optimal_k": core,
            "optimal_expected_tests": core,
            "optimality_range": core + ["pooldesign.ranges"],
        }

    def test_first_read_loads_its_home_and_the_homes_imports(self, first_loads):
        _, reads = first_loads
        assert list(reads) == pooldesign.__all__
        for name, modules in reads.items():
            home = HOME_LOADS[pooldesign._HOMES[name]]
            assert modules == ["pooldesign", *(f"pooldesign.{m}" for m in home)], name


PRIOR = PriorSpec(2.0, 5.0, 0.25)
POINT = LossPoint(11, 0.5, 0.125)
RECORDS = {
    "OptimalityRange(k=8, p_low=0.25, p_high=0.5)": OptimalityRange(8, 0.25, 0.5),
    "LossPoint(k=11, p_star=0.5, sup_loss=0.125)": POINT,
    "MinimaxResult(k_minimax=11, upper_bound=0.75, "
    "worst_point=LossPoint(k=11, p_star=0.5, sup_loss=0.125), method='analytic')":
        MinimaxResult(11, 0.75, POINT, "analytic"),
    "PriorSpec(a=2.0, b=5.0, upper=0.25)": PRIOR,
    "BayesResult(k_opt=3, expected_tests_at_opt=0.75, "
    "prior=PriorSpec(a=2.0, b=5.0, upper=0.25))": BayesResult(3, 0.75, PRIOR),
    "Mismatch(table_id='T3', row='k_minimax', column='0.001', computed=65, "
    "expected=64)": Mismatch("T3", "k_minimax", "0.001", 65, 64),
    "TableReport(table_id='T9', title='t', columns=['a'], rows=[('r', [1.5])])":
        TableReport("T9", "t", ["a"], [("r", [1.5])]),
}


class TestRecords:
    @pytest.mark.parametrize("text", RECORDS)
    def test_repr(self, text):
        assert repr(RECORDS[text]) == text

    @pytest.mark.parametrize("text", RECORDS)
    def test_fields_are_read_only(self, text):
        record = RECORDS[text]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None  # no __dict__ either

    @pytest.mark.parametrize("text", RECORDS)
    def test_pickle_and_deepcopy_give_an_equal_record(self, text):
        record = RECORDS[text]
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record

    @pytest.mark.parametrize("text", RECORDS)
    def test_docstring_is_the_records_own(self, text):
        cls = type(RECORDS[text])
        default = f"{cls.__name__}({', '.join(cls._fields)})"  # namedtuple's own
        doc = inspect.getdoc(cls)
        assert doc and doc != default

    def test_records_are_tuples(self):
        k, p_low, p_high = OptimalityRange(8, 0.25, 0.5)
        assert (k, p_low, p_high) == (8, 0.25, 0.5)
        assert OptimalityRange(8, 0.25, 0.5) == (8, 0.25, 0.5)

    def test_prior_default_upper_and_hash(self):
        assert PriorSpec(1.0, 1.0) == PriorSpec.uniform() == PriorSpec.uniform(1.0)
        assert hash(PriorSpec.uniform(0.5)) == hash(PriorSpec(1.0, 1.0, 0.5))
        assert len({PriorSpec.uniform(0.5), PriorSpec(1.0, 1.0, 0.5)}) == 1

    @pytest.mark.parametrize(
        "change", [{"a": -1.0}, {"b": float("inf")}, {"upper": 0.0}, {"upper": 1.5}]
    )
    def test_replace_validates(self, change):
        with pytest.raises(ValueError):
            PriorSpec.uniform(0.5)._replace(**change)

    def test_make_validates(self):
        assert PriorSpec._make([0.5, 0.5, 0.3]) == PriorSpec.jeffreys(0.3)
        with pytest.raises(ValueError):
            PriorSpec._make([0.5, 0.5, 2.0])


TESTS = Path(__file__).parent
SPECIAL = {"betainc", "beta", "quad", "findroot"}


class TestSources:
    def test_only_the_exact_oracles_call_mpmath_special_functions(self):
        # tests/_exact.py writes each multi-precision oracle once
        calls = [
            f"{path.name}:{node.lineno}"
            for path in sorted(TESTS.glob("test_*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute) and node.attr in SPECIAL
                and getattr(node.value, "id", None) in ("mp", "mpmath"))
            or (isinstance(node, ast.ImportFrom) and node.module == "mpmath"
                and SPECIAL & {alias.name for alias in node.names})
        ]
        assert calls == []

    def test_cited_test_names_exist(self):
        # each tests/<file>.py::<name>[::<name>] in the docs names a definition
        cited = {
            ref
            for doc in ("docs/decisions.md", "README.md", "bench/README.md")
            for ref in re.findall(
                r"tests/(\w+\.py)::(\w+)(?:::(\w+))?", (TESTS.parent / doc).read_text()
            )
        }
        assert cited
        for file, *names in sorted(cited):
            scope = ast.parse((TESTS / file).read_text())
            for name in filter(None, names):
                found = [node for node in scope.body if getattr(node, "name", None) == name]
                assert found, f"{file}::{'::'.join(filter(None, names))}"
                scope = found[0]

    def test_cited_decision_headings_exist(self):
        # each docs/decisions.md citation in src/ names the ## or ### heading
        # it relies on, as (docs/decisions.md, "<heading>"), maybe wrapped
        root = TESTS.parent
        decisions = (root / "docs/decisions.md").read_text()
        headings = re.findall(r"^#{2,3} (.+)$", decisions, re.M)
        cited = [
            (path.name, heading)
            for path in sorted((root / "src/pooldesign").glob("*.py"))
            for heading in re.findall(
                r'docs/decisions\.md(?:, "([^"]+)")?',
                re.sub(r"\s*\n\s*(?:#\s*)?", " ", path.read_text()),
            )
        ]
        assert len(cited) >= 12
        assert [cite for cite in cited if cite[1] not in headings] == []
