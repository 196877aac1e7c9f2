"""Names the benchmark harness (bench/run.py) looks up in the package.

The harness imports the package, calls some of its functions and, in a
traced run, patches others where their callers look them up.  A rename or a
trimmed export would otherwise show up only when the benchmark runs.
"""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import oddlength

# module -> attribute paths that bench/run.py reads or patches
BENCH_NAMES = {
    "oddlength": ["CartanType", "root_system", "run_partitioned", "signed_gf", "cli"],
    "oddlength.cli": ["main", "verification_suite"],
    "oddlength.gf": [
        "atomic_stats",
        "expand_product",
        "predicted_gf",
        "predicted_multivariate",
        "is_unimodal",
        "is_chessboard",
        "is_good_chessboard",
    ],
    "oddlength.engine": ["Checkpoint.write", "odd_length_gf_by_roots"],
    "oddlength.weyl": ["transversal_chain"],
}


@pytest.mark.parametrize(
    "module, path",
    [(m, p) for m, paths in BENCH_NAMES.items() for p in paths],
    ids=lambda v: v,
)
def test_bench_names_resolve(module, path):
    importlib.import_module("oddlength.cli")  # bench/run.py imports it too
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)  # AttributeError names what went missing


# keywords bench/run.py passes to run_partitioned; signed_gf takes
# (ctype, profile) positionally
BENCH_KEYWORDS = ("workers", "checkpoint_path", "resume", "allow_large", "parts")


def test_bench_calls_bind():
    inspect.signature(oddlength.run_partitioned).bind(
        "ctype", **{name: None for name in BENCH_KEYWORDS}
    )  # TypeError names a dropped keyword
    inspect.signature(oddlength.signed_gf).bind("ctype", "profile")


def test_package_exports_exist():
    for module in ("", ".cartan", ".weyl", ".stats", ".poly", ".gf", ".engine"):
        mod = importlib.import_module("oddlength" + module)
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], module


def test_import_loads_no_pool_machinery():
    # nothing in the package starts a thread or process pool
    code = (
        "import sys, oddlength, oddlength.cli; "
        "print(*sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(oddlength.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""


def test_second_method_runs_the_kernel_and_signed_gf_the_fold(monkeypatch):
    # odd_length_gf_by_roots stays a check of signed_gf only while the two
    # run different engines
    from oddlength import engine
    from oddlength.cartan import CartanType, root_system

    def refuse(*args, **kwargs):
        raise AssertionError("built the engine the other method runs")

    c4 = CartanType.parse("C4")
    with monkeypatch.context() as patch:
        patch.setattr(engine._Fold, "build", refuse)
        by_roots = engine.odd_length_gf_by_roots(root_system(c4))
    with monkeypatch.context() as patch:
        patch.setattr(engine._Split, "build", refuse)
        folded = oddlength.signed_gf(c4).poly
    assert by_roots == folded


def test_root_system_and_chain_build_multiply_no_elements(monkeypatch):
    # the tables and the chain are array searches; a slide back to a loop
    # over elements would call these once per element
    from oddlength import weyl
    from oddlength.cartan import CartanType, build_root_system

    def refuse(*args, **kwargs):
        raise AssertionError("built the chain element by element")

    monkeypatch.setattr(weyl, "multiply", refuse)
    monkeypatch.setattr(weyl, "_sift", refuse)
    chain = weyl.transversal_chain(build_root_system(CartanType.parse("E8")))
    assert [len(level) for level in chain] == [240, 56, 27, 16, 10, 3, 2, 2]
