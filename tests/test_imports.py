"""Every import in src/ and tests/ is used, every definition in src/ has a
caller and every default in src/ is passed by some call (no linter ships
with the project); commands that run no network do not import what only
the network needs."""

import ast
import collections
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def test_finder_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom x import A, B\n"
              "def f(a: A) -> np.ndarray: ...\n")
    assert unused_imports(source) == [(2, "os"), (4, "B")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


# top-level definitions in src/qnct that only tests call, kept on purpose
ONLY_TESTS_CALL = {
    "read_csv": "reads back what write_csv writes",
    "count_params": "the per-stage parameter counts of acceptance criterion 9",
    "nps_integral": "the NPS integral of acceptance criterion 7",
    "sum_of_squares": "the reference loss of the autodiff gradient checks",
    "grad_check": "the finite-difference check of acceptance criterion 3",
    "disk": "the analytic phantom of the projector's chord-length test",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def names_read(node) -> set:
    """Names a syntax tree reads: bare names, attributes, and the parts of
    dotted-name strings (tracer targets such as "unroll.bfgs_update")."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and _DOTTED.fullmatch(sub.value):
            found.update(sub.value.split("."))
    return found


def uncalled(sources: dict, package: str) -> list:
    """(path, line, name) of each top-level def or class in a path under
    ``package`` that no code in ``sources`` (path -> text) names outside
    the definition itself."""
    tops = [(path, node, names_read(node)) for path, text in sources.items()
            for node in ast.parse(text).body]
    return [(path, node.lineno, node.name) for path, node, _ in tops
            if path.startswith(package)
            and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not any(node.name in names
                        for _, other, names in tops if other is not node)]


def test_dead_code_finder_flags_only_unnamed_definitions():
    sources = {
        "src/qnct/m.py": ("def used(): ...\ndef unused(): ...\n"
                          "def recursive(): return recursive()\n"
                          "def traced(): ...\nclass Kept: ...\n"),
        "perfbench/run.py": ("from qnct import m\nm.used()\n"
                             "TARGET = 'm.traced'\nx: 'Kept'\n"),
    }
    assert uncalled(sources, "src/") == [("src/qnct/m.py", 2, "unused"),
                                         ("src/qnct/m.py", 3, "recursive")]


def program_sources() -> dict:
    """path -> text of every module in src/, scripts/ and perfbench/."""
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for top in ("src", "scripts", "perfbench")
            for path in sorted((ROOT / top).rglob("*.py"))}


def test_every_definition_in_src_has_a_caller():
    sources = program_sources()
    found = {name: f"{path}:{line}: {name}"
             for path, line, name in uncalled(sources, "src/qnct/")}
    assert set(ONLY_TESTS_CALL) <= set(found), \
        f"allowlisted but called: {sorted(set(ONLY_TESTS_CALL) - set(found))}"
    dead = [where for name, where in found.items()
            if name not in ONLY_TESTS_CALL]
    assert not dead, "definitions no code calls:\n" + "\n".join(dead)


# "function.parameter" (or "Class.method.parameter") -> why a default that
# no code in src/, scripts/ or perfbench/ passes stays a parameter
ONE_CALLER_KNOBS = {
    "qn_reconstruct.gtol": "an acceptance test stops the solver at a "
                           "gradient tolerance",
    "main.argv": "the console entry point calls main() with no arguments; "
                 "tests pass argv",
}


def defaults(fn) -> list:
    """(position, name) of each parameter of fn that has a default; the
    position is None for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return found


def passes(call, position, name) -> bool:
    """Whether a call passes the parameter, by keyword or by position;
    *args and **kwargs pass everything."""
    return (any(k.arg in (None, name) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def unset_knobs(sources: dict, package: str) -> list:
    """(path, line, "function.parameter") of each parameter with a default,
    of a top-level function or a method of a top-level class in a path
    under ``package``, that no call in ``sources`` (path -> text) passes.

    Calls match by the called name: f(...) and obj.f(...) call every f,
    and C(...) calls C.__init__. A method's positions count from the
    parameter after self or cls, except a staticmethod's. The match is by
    name alone, so a call of another function of the same name counts
    too and can hide a knob. A call through another name (a dict of
    functions, a callback) is not seen, so a knob only such a call sets is
    flagged. Nor can the finder see a knob that every call passes its
    default value (layer_norm's eps, always given the 1e-5 it defaulted
    to, was one)."""
    calls = collections.defaultdict(list)
    defs = []
    for path, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                calls[called].append(node)
        if not path.startswith(package):
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((path, node, node.name, node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    called = node.name if fn.name == "__init__" else fn.name
                    defs.append((path, fn, f"{node.name}.{fn.name}", called,
                                 0 if static else 1))
    return [(path, fn.lineno, f"{qualname}.{name}")
            for path, fn, qualname, called, bound in defs
            for position, name in defaults(fn)
            if not any(passes(call, None if position is None
                              else position - bound, name)
                       for call in calls[called])]


def test_knob_finder_flags_only_defaults_no_call_passes():
    sources = {
        "src/qnct/m.py": ("def f(a, b=1, c=2, *, d=3, e=4): ...\n"
                          "def spread(a=1, b=2): ...\n"
                          "class K:\n"
                          "    def __init__(self, x=0, y=0): ...\n"
                          "    def method(self, p=1, q=2): ...\n"
                          "    @staticmethod\n"
                          "    def static(s=1, t=2): ...\n"),
        "perfbench/run.py": ("from qnct import m\n"
                             "m.f(0, 5, d=6)\n"
                             "m.spread(*[1, 2])\n"
                             "k = m.K(1)\n"
                             "k.method(q=3)\n"
                             "m.K.static(1)\n"),
    }
    assert unset_knobs(sources, "src/") == [
        ("src/qnct/m.py", 1, "f.c"), ("src/qnct/m.py", 1, "f.e"),
        ("src/qnct/m.py", 4, "K.__init__.y"),
        ("src/qnct/m.py", 5, "K.method.p"),
        ("src/qnct/m.py", 7, "K.static.t")]


def test_every_default_in_src_is_passed_by_some_call():
    found = {name: f"{path}:{line}: {name}"
             for path, line, name in unset_knobs(program_sources(), "src/qnct/")
             if name.split(".")[0] not in ONLY_TESTS_CALL}
    assert set(ONE_CALLER_KNOBS) <= set(found), \
        f"allowlisted but passed: {sorted(set(ONE_CALLER_KNOBS) - set(found))}"
    unset = [where for name, where in found.items()
             if name not in ONE_CALLER_KNOBS]
    assert not unset, ("defaults no call passes; make each a constant:\n"
                       + "\n".join(unset))


LAZY_SPECIAL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import qnct.cli
import run, speed, tracing, workloads
run.import_qnct()
print("scipy.special" in sys.modules)
import numpy as np
from qnct import autodiff as ad
ad.mlp(*(ad.Tensor(np.ones(s, dtype=np.float32))
         for s in ((1, 2), (2, 3), (3,), (3, 2), (2,))))
print("scipy.special" in sys.modules)
"""


def test_scipy_special_loads_at_the_first_mlp_call():
    # a fresh process: this one has imported scipy.special already
    code = LAZY_SPECIAL.format(src=str(ROOT / "src"),
                               perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["False", "True"]
