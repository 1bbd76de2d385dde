"""The package's public names, and the names the benchmark tracer wraps."""

import ast
import dataclasses
import inspect
import re
import types
from pathlib import Path

import regenverify
import regenverify.cli  # binds every submodule on the package
from regenverify import engine, randomness

ROOT = Path(__file__).resolve().parent.parent
ERRORS = {"ArithmeticCyclesWarning", "BudgetExceededError",
          "ConfigurationError", "HypothesisError"}


def readme_library_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_exports_are_the_readme_example_and_its_errors():
    imports = [node for node in ast.parse(readme_library_block()).body
               if isinstance(node, ast.ImportFrom)
               and node.module == "regenverify"]
    names = {alias.name for node in imports for alias in node.names}
    assert len(names) == 10
    assert set(regenverify.__all__) == names | ERRORS
    assert len(regenverify.__all__) == len(set(regenverify.__all__))
    assert isinstance(regenverify.__version__, str)


def test_readme_library_example_runs(capsys):
    code = readme_library_block()
    assert "replications=100_000" in code
    scope = {}
    exec(code.replace("100_000", "2_000"), scope)
    assert capsys.readouterr().out == "True\n"
    assert isinstance(scope["passed"], bool)
    assert [row["f_id"] for row in scope["per_tuple"]] == ["q25", "q50",
                                                          "q75"]


def load_bench_child() -> types.ModuleType:
    """``bench/child.py`` executed as a module that is never registered or
    run, so nothing is written next to it."""
    path = ROOT / "bench" / "child.py"
    module = types.ModuleType("bench_child")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_bench_tracer_hooks_resolve():
    child = load_bench_child()
    for _, module, name in child.SPANS:
        assert callable(getattr(getattr(regenverify, module), name)), name
    fields = {f.name for f in dataclasses.fields(engine.RegenModel)}
    assert "cycle_generator" in fields
    assert callable(engine.path_integral)
    # the tracer calls both with these argument shapes
    inspect.signature(engine.sample_states).bind(
        "model", "times", "n", "seed", base_key=(101, 0))
    inspect.signature(randomness.sample_cycle_vectors).bind(
        "dep", "marginals", "rng", "size")
