"""Reach: every function in the package runs under a command or a benchmark
workload, and every parameter with a default is set to another value by one.

A fresh interpreter installs a profiler before it imports saradc, runs a
fixed command list through ``cli.main`` and a short pass of each benchmark
workload, and reports every function of the package that was called and,
for each parameter with a default, whether its calls passed the default or
another value.  A ``def`` that none of them calls is library surface that
no user of the program reaches: it goes, or it moves into the tests if only
they read it.  A parameter that the program only ever leaves at its default
is a knob that changes no result: its default becomes the code.  The check
is at function and parameter level; the error branches inside a function
are the business of the tests that drive them.
"""

import ast
import json
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import saradc as sa

_PACKAGE = Path(sa.__file__).resolve().parent
_TESTS = Path(__file__).resolve().parent

_PROBE = """
import ast
import contextlib
import functools
import gc
import inspect
import io
import json
import os
import sys

tests, out = sys.argv[1:3]
commands, wanted = (json.loads(arg) for arg in sys.argv[3:5])
# (file, first line, name) -> [(parameter, its default's literal)]
wanted = {(f, line, name): params for f, line, name, params in wanted}
realpath = functools.lru_cache(maxsize=None)(os.path.realpath)
called = set()
checks = {}     # code -> [(parameter, default, outcomes)]
outcomes = {}   # (file, first line, name, parameter) -> {whether a call passed the default}


def checks_of(code):
    key = (realpath(code.co_filename), code.co_firstlineno, code.co_name)
    found = []
    for name, literal in wanted.get(key, ()):
        default = ast.literal_eval(literal)
        if default is not None and type(default) not in (int, float, str, bool):
            # compared by identity, with the object the function holds
            function = next(f for f in gc.get_referrers(code)
                            if getattr(f, "__code__", None) is code)
            default = inspect.signature(function).parameters[name].default
        found.append((name, default, outcomes.setdefault((*key, name), set())))
    return found


def is_default(value, default):
    if default is None or type(default) not in (int, float, str, bool):
        return value is default
    return type(value) is type(default) and value == default


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add(code)
        found = checks.get(code)
        if found is None:
            found = checks[code] = checks_of(code)
        if found:
            values = frame.f_locals
            for name, default, seen in found:
                seen.add(is_default(values[name], default))


sys.setprofile(profile)
import saradc.cli

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
    if c.co_filename.startswith(package)),
    "params": sorted([*key, sorted(seen)] for key, seen in outcomes.items())}))
"""


def _defs():
    """Every ``def`` under the package, nested and decorated ones included:
    (file, first line, name) -> (dotted name, {parameter: the source of its
    default}), and the parameters whose default ``ast.literal_eval`` cannot
    read, as "dotted(parameter)".  A decorated function's code object starts
    at its first decorator."""
    found, unreadable = {}, []

    def defaults(node, dotted):
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                 *((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)]
        out = {}
        for arg, default in pairs:
            try:
                ast.literal_eval(default)
            except ValueError:
                unreadable.append(f"{dotted}({arg.arg})")
            else:
                out[arg.arg] = ast.unparse(default)
        return out

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                dotted = prefix + child.name
                found[(str(path), first, child.name)] = (dotted, defaults(child, dotted))
                visit(child, path, f"{dotted}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(_PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(_PACKAGE).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, module + ".")
    return found, unreadable


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


@pytest.fixture(scope="module")
def probe(tmp_path_factory, fresh_env):
    """(defs, unreadable defaults, what the probe saw), from one probe run."""
    tmp_path = tmp_path_factory.mktemp("reach")
    commands = _commands(tmp_path)
    defs, unreadable = _defs()
    wanted = [[*key, sorted(params.items())] for key, (_, params) in defs.items() if params]
    run = subprocess.run([sys.executable, "-c", _PROBE, str(_TESTS), str(tmp_path / "bench"),
                          json.dumps(commands), json.dumps(wanted)],
                         cwd=tmp_path, env=fresh_env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert seen["status"] == [0] * len(commands), list(zip(commands, seen["status"]))
    return defs, unreadable, seen


def test_every_function_runs_under_a_command_or_workload(probe):
    defs, _, seen = probe
    called = {(str(Path(f).resolve()), line, name) for f, line, name in seen["called"]}
    assert len(defs) > 80       # the walk read the package the probe imported
    missed = sorted(dotted for key, (dotted, _) in defs.items() if key not in called)
    assert missed == [], f"no command or workload calls {', '.join(missed)}"


def test_every_parameter_is_set_by_a_command_or_workload(probe):
    # a default other than None, an int, a float, a str or a bool is
    # compared by identity; those by type and value, so a call that passes
    # the default's value leaves the parameter at its default
    defs, unreadable, seen = probe
    assert unreadable == [], f"defaults that are not literals: {', '.join(unreadable)}"
    outcomes = {(str(Path(f).resolve()), line, name, param): got_default
                for f, line, name, param, got_default in seen["params"]}
    params = [(key, dotted, param) for key, (dotted, defaults) in defs.items()
              for param in defaults]
    assert len(params) >= 10    # the walk read the defaults
    unset = sorted(f"{dotted}({param})" for key, dotted, param in params
                   if False not in outcomes.get((*key, param), ()))
    assert unset == [], f"no command or workload sets {', '.join(unset)} off its default"
