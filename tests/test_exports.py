"""Every public name of the package has a caller inside the package, every
other module-level name is read there, and no module reaches into another
one's private names.

A name in ``isolation_lab.__all__``, or a public method of a class in it,
that only the tests use is a helper the package does not need, and a
function, class or constant outside ``__all__`` that nothing reads is left
over from an edit or kept for the tests; the scans below find them.  An
underscore name is used only in its own module, and a defaulted parameter
of an exported function that no package call passes is a mode kept for
the tests.  The reverse holds inside the package: a default of a private
function or method that every package call overrides is a value that only
the tests use.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Optional

import isolation_lab

PACKAGE = pathlib.Path(isolation_lab.__file__).parent


def _defined_by(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement binds: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for t in targets for node in ast.walk(t)
                if isinstance(node, ast.Name)}
    return set()


def _referenced(stmt: ast.stmt) -> set[str]:
    """Names a statement reads: loaded names, attributes, imported modules."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
    return out


def test_every_export_has_a_package_caller():
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are not uses
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            # a name used only inside its own definition has no caller
            used |= _referenced(stmt) - _defined_by(stmt)
    unused = sorted(set(isolation_lab.__all__) - used)
    assert not unused, f"exported but never used by the package: {unused}"


def test_every_public_method_has_a_package_caller():
    # a public method or property of an exported class must be read as an
    # attribute (``x.name``) somewhere in the package; a bare name does not
    # count, since a local variable may share the method's name
    read: set[str] = set()
    methods: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and node.name in isolation_lab.__all__:
                methods |= {(node.name, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")}
    unread = sorted(f"{cls}.{name}" for cls, name in methods if name not in read)
    assert not unread, f"public methods no package code reads: {unread}"


def test_every_private_name_is_read():
    # a module-level function, class or constant outside ``__all__`` that
    # no package code reads outside its own definition is left over from a
    # change, or serves only the tests
    defined: set[tuple[str, str]] = set()
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _defined_by(stmt)
            defined |= {(path.stem, name) for name in names
                        if not name.startswith("__") and name not in isolation_lab.__all__}
            used |= _referenced(stmt) - names
    unread = sorted(f"{module}.{name}" for module, name in defined if name not in used)
    assert not unread, f"names outside __all__ the package never reads: {unread}"


def test_no_module_imports_another_modules_private_names():
    # an underscore name is private to its module: another package module
    # that imports it, or reads it off the module, reaches past the public
    # functions that keep that module's rules in one place
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules: set[str] = set()  # local names bound to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "")
                                                     .startswith("isolation_lab")):
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        crossings.append(f"{path.stem} imports {node.module}.{alias.name}")
                    elif node.module in (None, "isolation_lab"):  # from . import graphs
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name.startswith("isolation_lab")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules and node.attr.startswith("_") \
                    and not node.attr.startswith("__"):
                crossings.append(f"{path.stem} reads {node.value.id}.{node.attr}")
    assert not crossings, crossings


def _defaulted(fn: ast.FunctionDef, method: bool = False) -> dict[str, int]:
    """Each defaulted parameter of ``fn`` -> its position among a call's
    arguments, or -1 when it is keyword-only; a method's call does not list
    ``self``."""
    a = fn.args
    params = a.posonlyargs + a.args
    first = len(params) - len(a.defaults)
    found = {p.arg: i - method for i, p in enumerate(params) if i >= first}
    found |= {p.arg: -1 for p, d in zip(a.kwonlyargs, a.kw_defaults) if d}
    return found


def _passes(call: ast.Call, param: str, pos: int) -> Optional[bool]:
    """Does ``call`` pass ``param``, at argument position ``pos``?  None when
    a ``*args`` or ``**kw`` of the call may or may not pass it."""
    if any(kw.arg == param for kw in call.keywords):
        return True
    # the arguments before the first ``*args`` have known positions
    plain = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)),
                 len(call.args))
    if 0 <= pos < plain:
        return True
    if (pos >= 0 and plain < len(call.args)) or any(kw.arg is None for kw in call.keywords):
        return None
    return False


def _package_calls(defaulted: dict[str, dict[str, int]]) -> dict[str, list[ast.Call]]:
    """The package's calls of each function in ``defaulted``, matched by the
    called name (``f(...)`` or ``x.f(...)``)."""
    calls: dict[str, list[ast.Call]] = {name: [] for name in defaulted}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in calls:
                    calls[name].append(node)
    return calls


def test_every_defaulted_parameter_is_passed_by_the_package():
    # a parameter with a default on an exported function that no package
    # call passes, by position or by keyword, is a mode only the tests use
    defaulted: dict[str, dict[str, int]] = {}  # function -> parameter -> position
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name in isolation_lab.__all__:
                defaulted[stmt.name] = _defaulted(stmt)
    calls = _package_calls(defaulted)
    unpassed = sorted(f"{name}.{param}" for name, params in defaulted.items()
                      for param, pos in params.items()
                      if all(_passes(call, param, pos) is False for call in calls[name]))
    assert not unpassed, f"defaulted parameters no package call passes: {unpassed}"


def test_no_private_default_is_overridden_by_every_package_call():
    # a default of a package-private function or method (an underscore
    # function, or a method of an underscore class) that every package call
    # overrides is a value that only the tests use
    defaulted: dict[str, dict[str, int]] = {}  # function or method -> parameter -> position
    owner: dict[str, str] = {}  # method -> its class, for the message
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                defaulted[stmt.name] = _defaulted(stmt)
            elif isinstance(stmt, ast.ClassDef) and stmt.name.startswith("_"):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defaulted[item.name] = _defaulted(item, method=True)
                        owner[item.name] = f"{stmt.name}."
    calls = _package_calls(defaulted)
    overridden = sorted(f"{owner.get(name, '')}{name}.{param}"
                        for name, params in defaulted.items() if calls[name]
                        for param, pos in params.items()
                        if all(_passes(call, param, pos) for call in calls[name]))
    assert not overridden, f"defaults every package call overrides: {overridden}"
