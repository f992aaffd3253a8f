"""The package's modules import each other one way: the primitives (gf2,
ldpc, modem, channel, capacity) import none of the layers above them, and
among themselves gf2, modem and channel import no dmmsim module, ldpc
only gf2 and channel, capacity only channel; config imports only ldpc;
simkit imports config but neither results nor cli; results does not
import cli. Read from the source with ``ast``, because importing
dmmsim loads every module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dmmsim"
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
PRIMITIVES = ("gf2", "ldpc", "modem", "channel", "capacity")


def package_imports(module):
    """The dmmsim modules a module of the package imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["dmmsim" if node.level else None, node.module]))
            paths = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        found.update(p.split(".")[1] for p in paths if p.startswith("dmmsim.") and p.split(".")[1] in MODULES)
    return found


def test_imports_are_seen():
    # the rules below hold vacuously if nothing is found
    assert package_imports("cli") >= {"capacity", "config", "results", "simkit"}
    assert package_imports("simkit") >= {"config", "ldpc", "modem"}
    assert package_imports("results") >= {"config", "simkit"}
    assert package_imports("ldpc") >= {"gf2", "channel"}
    assert package_imports("capacity") >= {"channel"}


@pytest.mark.parametrize(
    "module, allowed",
    [("gf2", set()), ("modem", set()), ("channel", set()), ("ldpc", {"gf2", "channel"}), ("capacity", {"channel"})],
)
def test_primitive_layer(module, allowed):
    # channel, the bottom layer, holds the noise formula and the Philox key for all of them
    assert package_imports(module) <= allowed


def test_config_imports_primitives_only():
    # ldpc for the codes; eta is the sum of their rates
    assert package_imports("config") <= {"ldpc"}


def _tests_for_bool(call):
    """Whether an ast.Call is isinstance(..., bool), bool alone or in a tuple."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance" and len(call.args) == 2):
        return False
    kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else [call.args[1]]
    return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)


def test_integer_rule_is_defined_once():
    # "a Python int, not a bool" is one function in channel, the bottom
    # layer; every other module calls it rather than testing for bool itself
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES}
    defined = sorted(m for m, tree in trees.items()
                     if any(isinstance(n, ast.FunctionDef) and n.name == "_is_int" for n in ast.walk(tree)))
    assert defined == ["channel"]
    bool_tests = sorted(
        (m, f.name)
        for m, tree in trees.items()
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and any(isinstance(c, ast.Call) and _tests_for_bool(c) for c in ast.walk(f))
    )
    assert bool_tests == [("channel", "_is_int")]


def _calls(node, name):
    """Whether an ast node calls the function ``name`` anywhere inside it."""
    return any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == name for c in ast.walk(node))


def _tests_for_zero_variance(compare):
    """Whether an ast.Compare tests a value == or != the float 0.0."""
    return any(isinstance(op, (ast.Eq, ast.NotEq)) for op in compare.ops) and any(
        isinstance(v, ast.Constant) and type(v.value) is float and v.value == 0.0
        for v in (compare.left, *compare.comparators)
    )


def test_capacity_routes_each_value_in_one_function():
    # the noiseless, floor, series and window decision per Es/N0 value is
    # _route's alone: no other function of capacity turns an Es/N0 into a
    # variance or tests that variance for the noiseless channel
    functions = [f for f in ast.walk(ast.parse((SRC / "capacity.py").read_text())) if isinstance(f, ast.FunctionDef)]
    assert [f.name for f in functions if _calls(f, "noise_var")] == ["_route"]
    zero_tests = [f.name for f in functions for c in ast.walk(f) if isinstance(c, ast.Compare) and _tests_for_zero_variance(c)]
    assert zero_tests == ["_route"]


@pytest.mark.parametrize(
    "module, above",
    [
        ("simkit", {"results", "cli"}),
        ("results", {"cli"}),
        *[(m, {"config", "simkit", "results", "cli"}) for m in PRIMITIVES],
    ],
)
def test_no_import_from_a_layer_above(module, above):
    assert not package_imports(module) & above
