"""Package surface: every module's __all__ names only what the module has,
no module reaches into another's private names or leaves its own unread,
and the tests' reference pipeline shares no routine with the library."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import numpy as np
import pytest

import rtikit

MODULES = sorted(m.name for m in pkgutil.iter_modules(rtikit.__path__, "rtikit."))


def test_dataclasses_holding_arrays_compare_by_identity():
    """The generated __eq__ of a dataclass with an array field raises on
    equal-shaped arrays, and its __hash__ raises on any; such a dataclass
    is declared eq=False, so it compares and hashes by identity."""
    holding = [cls for name in MODULES
               for cls in vars(importlib.import_module(name)).values()
               if dataclasses.is_dataclass(cls) and cls.__module__ == name
               and any(f.type in (np.ndarray, np.ndarray | None)
                       for f in dataclasses.fields(cls))]
    assert len(holding) >= 10
    comparing = [cls.__name__ for cls in holding if cls.__dataclass_params__.eq]
    assert not comparing, f"dataclasses holding arrays keep eq=True: {comparing}"


def test_every_module_is_found():
    assert "rtikit.geometry" in MODULES and "rtikit.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_existing_attributes(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_imported_from_another_module(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("rtikit"))
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{name} imports private names {private}"


# What the reference pipeline may take from rtikit: data types, parameter
# dataclasses and the two model equations that the published anchors check.
# A builder, kernel or geometry routine there would let a fault in it pass
# every test that compares against the reference.
REFERENCE_MAY_IMPORT = {
    "NodeLayout", "LinkTable", "VoxelGrid", "RssFrame", "FadeLevelTable",
    "PathLossFit", "EllipseModelParams", "MeasurementModelParams",
    "ReconstructionParams", "PipelineConfig", "lambda_for", "beta_plus",
}


def test_reference_pipeline_imports_no_library_routine():
    path = pathlib.Path(__file__).with_name("reference_pipeline.py")
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names
                         if alias.name.split(".")[0] == "rtikit"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "rtikit"):
            imported += [alias.name for alias in node.names]
    assert imported, "the reference takes nothing from rtikit"
    assert set(imported) <= REFERENCE_MAY_IMPORT, imported


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used(name):
    """Each name a module imports at its top level is read as a name in it
    or exported in its __all__, so no import outlives the code that used
    it."""
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = [(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [n for n in imported if n not in used and n not in module.__all__]
    assert not unused, f"{name} imports unused names {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_private_name_is_read(name):
    """Each private function, class or constant a module defines at its top
    level is read as a name somewhere in that module, so none outlives the
    code that used it."""
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [target.id for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [n for n in defined
              if n.startswith("_") and not n.startswith("__") and n not in read]
    assert not unread, f"{name} defines unread private names {unread}"
