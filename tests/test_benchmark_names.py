"""The library names the benchmark scripts in ``perfbench/`` read.

Nothing runs every benchmark script on each change (``make_goldens.py``
only when the goldens are re-recorded), so a name moved out of the
package would break them unseen.  This test reads the scripts' source
and changes nothing there: every attribute read through a name bound by
``import levelcross...`` must resolve in the imported package.

The benchmark's tracer wraps only the functions a module lists in
``__all__``, and a traced run fails when a layer it expects records no
calls.  So the quadrature functions the package calls must be public.

A call whose arguments no longer fit the library's signature breaks the
scripts just as unseen, so each call with no starred argument must bind.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "levelcross"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _library_reads(tree):
    """(dotted path, node) of each attribute read through a name that an
    ``import levelcross...`` statement binds somewhere in the module, and
    the submodules those statements import."""
    roots, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "levelcross":
                    modules.add(alias.name)
                    if alias.asname:
                        roots[alias.asname] = alias.name
                    else:
                        roots["levelcross"] = "levelcross"
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                names.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in roots:
                path = ".".join([roots[base.id], *reversed(names)])
                reads.append((path, node))
    return reads, modules


def _resolve(path):
    head, *attrs = path.split(".")
    obj = importlib.import_module(head)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_library_name_resolves(script):
    reads, modules = _library_reads(ast.parse(script.read_text(), str(script)))
    for name in modules:
        importlib.import_module(name)
    missing = []
    for path, node in reads:
        try:
            _resolve(path)
        except AttributeError:
            missing.append(f"{script.name}:{node.lineno}: {path}")
    assert not missing, missing


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_library_call_binds(script):
    tree = ast.parse(script.read_text(), str(script))
    reads, modules = _library_reads(tree)
    for name in modules:
        importlib.import_module(name)
    callees = {node: path for path, node in reads}
    unbound = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and call.func in callees):
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            continue
        path = callees[call.func]
        try:
            inspect.signature(_resolve(path)).bind(
                *[None] * len(call.args), **{k.arg: None for k in call.keywords}
            )
        except TypeError as exc:
            unbound.append(f"{script.name}:{call.lineno}: {path}: {exc}")
    assert not unbound, unbound


def test_the_names_that_block_moves_are_pinned():
    # the reads that keep sweep_c and series_oracle in the package; this
    # also fails if the scripts or the reads through `lc` go unseen
    found = set()
    for script in SCRIPTS:
        found |= {path for path, _ in _library_reads(ast.parse(script.read_text()))[0]}
    assert {"levelcross.sweep_c", "levelcross.series_oracle",
            "levelcross.sim.first_crossing_time"} <= found


def test_the_package_imports_only_public_quadrature_names():
    public = set(importlib.import_module("levelcross.quadrature").__all__)
    private = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "quadrature"
        for alias in node.names
        if alias.name not in public
    ]
    assert not private, private
