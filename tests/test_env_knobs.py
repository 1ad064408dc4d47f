"""Every ``REPRO_*`` environment variable the package reads is documented here.

Walks each module under ``src/repro`` and collects the keys of every
``os.environ.get(...)``, ``os.environ[...]``, ``os.getenv(...)`` and
``... in os.environ`` read, resolving a key given as a module-level
string constant.  The set must equal :data:`KNOBS`, so a new knob has to
edit this list and shows in review.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The documented knobs: audits, tracing, the flight recorder and its
#: dump directory, and the serve-level chaos plan the chaos harness
#: hands its serve processes.
KNOBS = {
    "REPRO_CHECK",
    "REPRO_TRACE",
    "REPRO_FLIGHT",
    "REPRO_FLIGHT_DIR",
    "REPRO_SERVE_FAULTS",
}


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _env_keys(tree: ast.Module):
    """The key expression of every environment read in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "get"
                    and _is_environ(func.value)):
                yield node.args[0]
            elif (isinstance(func, ast.Attribute) and func.attr == "getenv"
                    and isinstance(func.value, ast.Name) and func.value.id == "os"):
                yield node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node.slice
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.In, ast.NotIn))
                and _is_environ(node.comparators[0])):
            yield node.left


def _constants(tree: ast.Module):
    """Module-level ``NAME = "string"`` assignments."""
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value.value
    return out


def read_knobs():
    found, unresolved = set(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        consts = _constants(tree)
        for key in _env_keys(tree):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                name = key.value
            elif isinstance(key, ast.Name) and key.id in consts:
                name = consts[key.id]
            else:
                unresolved.append(f"{path.relative_to(ROOT)}:{key.lineno}")
                continue
            if name.startswith("REPRO_"):
                found.add(name)
    return found, unresolved


def test_env_knobs_match_the_documented_list():
    found, unresolved = read_knobs()
    assert not unresolved, f"environment reads with an unresolvable key: {unresolved}"
    assert found == KNOBS
