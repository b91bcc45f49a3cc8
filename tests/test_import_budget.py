"""The core imports only leaf modules of the standard library.

A one-shot ``levelcross`` command, and the set-up of every benchmark
run, is dominated by ``import levelcross``.  ``dataclasses`` and
``typing`` pull in inspect, ast, dis and tokenize.  In a clean
interpreter (``python -S -I``) importing those two alone takes about
39 ms, more than ``import levelcross, levelcross.cli`` takes in all
(about 28 ms; medians of 25 runs, CPython 3.11, 2-CPU virtual machine).
``mmap`` and ``signal`` serve only a sweep with forked workers, which
imports them when it needs them.
"""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "typing", "inspect", "ast")

FORK_ONLY = ("mmap", "signal")


def test_core_imports_no_heavy_stdlib_modules():
    # -S -I: no site-packages and no PYTHON* variables, so only the
    # interpreter's own start-up modules are loaded before the import
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import levelcross, levelcross.cli\n"
        f"print(*sorted(set({HEAVY + FORK_ONLY!r}) & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-I", "-c", child],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == []
