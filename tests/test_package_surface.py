"""The package ships only code that it runs, or that the README documents for callers.

Every public top-level function or class of a ``bifurc`` module, and every
public method or property of such a class, must be loaded somewhere in the
package (a call, a reference, an attribute read), apart from the names the
README documents for outside callers. A reference computation that only the
tests use belongs in ``tests/oracles.py``. Only ``cli`` reads a configuration
table: no other module calls a typed ``RunConfig`` reader.
"""

import ast
from pathlib import Path

import bifurc

# the library entry points the README documents, which no command calls
OUTSIDE_CALLERS = {"probe_step", "CriticalityReading.degenerate", "SdeRunResult.final_state"}
# RunConfig's typed readers: a value read from the table outside the CLI is a second
# place where a command's calibration can live
TYPED_READERS = {"get_int", "get_float", "get_optional_float", "get_float_list", "get_choice",
                 "seeds"}


def _public(name):
    return not name.startswith("_")


def surface_and_loads(package_dir):
    """(public definitions, loaded names) over the package's modules.

    A definition is "name" for a top-level function or class and
    "Class.name" for a method or property; the loaded names are every
    identifier read as a bare name or as an attribute.
    """
    defined, loaded = set(), set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef) and _public(node.name):
                defined.update(
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and _public(item.name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return defined, loaded


def test_only_the_documented_entry_points_have_no_caller_in_the_package():
    defined, loaded = surface_and_loads(Path(bifurc.__file__).parent)
    unused = {name for name in defined if name.rpartition(".")[2] not in loaded}
    assert unused == OUTSIDE_CALLERS


def test_only_the_cli_reads_a_run_config():
    readers = set()
    for path in sorted(Path(bifurc.__file__).parent.glob("*.py")):
        if path.stem in ("cli", "config"):  # config defines the readers
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in TYPED_READERS):
                readers.add(f"{path.stem}.{node.func.attr}")
    assert readers == set()
