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
