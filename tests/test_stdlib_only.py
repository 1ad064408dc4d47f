"""The package runs on the standard library alone.

A ``python -E -S`` subprocess (no site-packages, no ``PYTHONPATH``)
imports every module of ``repro`` and factors one circuit along every
registered path, so a third-party import — at module level or deferred
into a function — fails this test.
"""

import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = textwrap.dedent(
    """
    import importlib, pkgutil, sys
    sys.path.insert(0, sys.argv[1])
    import repro
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        if mod.name != "repro.__main__":  # importing it runs the CLI
            importlib.import_module(mod.name)
    from repro.circuits.mcnc import make_circuit
    from repro.verify.paths import all_paths
    net = make_circuit("dalu", scale=0.1)
    for path in all_paths():
        path.run(net)
    print("ok", len(all_paths()))
    """
)


def test_imports_and_paths_need_no_site_packages():
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")
