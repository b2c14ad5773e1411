"""Reach: every function in the package runs under a command or a benchmark
workload.

A fresh interpreter installs a profiler before it imports saradc, runs a
fixed command list through ``cli.main`` and a short pass of each benchmark
workload, and reports every function of the package that was called.  A
``def`` that none of them calls is library surface that no user of the
program reaches: it goes, or it moves into the tests if only they read it.
The check is at function level; the error branches inside a function are
the business of the tests that drive them.
"""

import ast
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import saradc as sa

_PACKAGE = Path(sa.__file__).resolve().parent
_TESTS = Path(__file__).resolve().parent

_PROBE = """
import contextlib
import io
import json
import os
import sys

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
import saradc.cli

tests, out, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, tests)
from bench_program import NAMES, run_pass

with contextlib.redirect_stdout(io.StringIO()):
    status = [saradc.cli.main(argv) for argv in commands]
for name in NAMES:
    run_pass(name, os.path.join(out, name), ops=2)
sys.setprofile(None)
package = os.path.dirname(saradc.__file__) + os.sep
print(json.dumps({"status": status, "called": sorted(
    [c.co_filename, c.co_firstlineno, c.co_name] for c in called
    if c.co_filename.startswith(package))}))
"""


def _defs():
    """Every ``def`` under the package, nested and decorated ones included:
    (file, first line, name) -> dotted name.  A decorated function's code
    object starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(_PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(_PACKAGE).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, module + ".")
    return found


def _commands(tmp_path):
    """Every command, with documents that reach the JSON reader, the split
    array and a rate at which comparisons latch."""
    ref = sa.reference_defaults()
    docs = {"cfg.json": json.dumps(asdict(ref)),
            "split.cfg": sa.serialize(replace(ref, topology="split")),
            "fast.cfg": sa.serialize(replace(ref, f_s=225e6))}
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    json_doc, split_doc, fast_doc = (str(tmp_path / name) for name in docs)
    runs = [["simulate", json_doc, "--check"],
            ["simulate", "--ideal", "--check", "--n", "1024"],
            ["simulate", split_doc, "--n", "256", "--bin", "19"],
            ["power", fast_doc, "--n", "256", "--bin", "19"],
            ["timing", fast_doc],
            ["dac-compare"],
            ["metastability", "--trials", "10000"],
            ["sweep", "--param", "c_p", "--range", "0:20e-15:3", "--sndr"]]
    out = str(tmp_path / "out")
    return [*(argv + ["--out", out] for argv in runs), ["print-defaults"]]


def test_every_function_runs_under_a_command_or_workload(tmp_path):
    commands = _commands(tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(_PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", _PROBE, str(_TESTS), str(tmp_path / "bench"),
                          json.dumps(commands)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert probe["status"] == [0] * len(commands), list(zip(commands, probe["status"]))
    called = {(str(Path(f).resolve()), line, name) for f, line, name in probe["called"]}
    defs = _defs()
    assert len(defs) > 80       # the walk read the package the probe imported
    missed = sorted(dotted for key, dotted in defs.items() if key not in called)
    assert missed == [], f"no command or workload calls {', '.join(missed)}"
