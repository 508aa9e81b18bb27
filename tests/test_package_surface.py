"""The package ships only code that it runs, or that the README documents for callers.

Every public top-level function or class of a ``bifurc`` module must be loaded
somewhere in the package (a call, a reference, an attribute read), and every
public method, property or field of such a class must be read as an attribute,
apart from the names the README documents for outside callers and the fields of
the records the CLI writes whole. A reference computation that only the tests
use belongs in ``tests/oracles.py``. Only ``cli`` reads a configuration
table: no other module calls a typed ``RunConfig`` reader, and the records
built from it restate none of its values as field defaults.
"""

import ast
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import bifurc
from bifurc.config import DEFAULTS
from bifurc.escape_lab import FitReport, SweepSummary
from bifurc.gmm_probe import ProbeConfig
from bifurc.sde import PersistencePrediction, SdeConfig
from bifurc.taxonomy import AxisReading, ClassifierThresholds, ShapeClass

# the library entry points the README documents, which no command calls
OUTSIDE_CALLERS = {"probe_step", "CriticalityReading.degenerate"}
# the fields of the records the CLI writes whole (cli._json_fields), which no attribute reads
WRITTEN_WHOLE = {f"{cls.__name__}.{f.name}"
                 for cls in (PersistencePrediction, ShapeClass, AxisReading, SweepSummary,
                             FitReport)
                 for f in fields(cls)}
# RunConfig's typed readers: a value read from the table outside the CLI is a second
# place where a command's calibration can live
TYPED_READERS = {"get_int", "get_float", "get_optional_float", "get_float_list", "get_choice",
                 "seeds"}


def _public(name):
    return not name.startswith("_")


def _member(item):
    """The name a class-body statement defines: a method or property, or an annotated field."""
    if isinstance(item, ast.FunctionDef):
        return item.name
    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
        return item.target.id
    return None


def surface_and_loads(package_dir):
    """(public definitions, bare names read, attribute names read) over the package's modules.

    A definition is "name" for a top-level function or class and
    "Class.name" for a method, property or field of such a class.
    """
    defined, bare, attributes = set(), set(), set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef) and _public(node.name):
                names = filter(None, map(_member, node.body))
                defined.update(f"{node.name}.{name}" for name in names if _public(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return defined, bare, attributes


def test_only_the_documented_entry_points_have_no_caller_in_the_package():
    """A top-level name counts as used when it is read bare or as an attribute; a
    class member only when it is read as an attribute (x.name), since a bare name
    of the same spelling is some local variable.

    Members are matched by name alone, so a field counts as read when an attribute
    of the same name on any other object is: any record's seed field would pass
    on the protocols' dataset.seed.
    """
    defined, bare, attributes = surface_and_loads(Path(bifurc.__file__).parent)
    unused = {name for name in defined
              if name.rpartition(".")[2] not in (attributes if "." in name else bare | attributes)}
    assert unused - WRITTEN_WHOLE == OUTSIDE_CALLERS


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


@pytest.mark.parametrize(
    "cls,section",
    [(ProbeConfig, "probe"), (ClassifierThresholds, "taxonomy"), (SdeConfig, "sde")],
)
def test_each_record_field_is_a_table_key_with_no_default(cls, section):
    # a field default would be a second copy of the table's value, one the CLI could lean on
    for f in fields(cls):
        assert f.default is MISSING and f.default_factory is MISSING, f"{cls.__name__}.{f.name}"
    assert {f.name for f in fields(cls)} - {"seed"} <= set(DEFAULTS[section])
