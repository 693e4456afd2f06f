"""Every import in src/ and tests/ is used, and every definition in src/
has a caller (no linter ships with the project); commands that run no
network do not import what only the network needs."""

import ast
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


def test_every_definition_in_src_has_a_caller():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text()
               for top in ("src", "scripts", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))}
    found = {name: f"{path}:{line}: {name}"
             for path, line, name in uncalled(sources, "src/qnct/")}
    assert set(ONLY_TESTS_CALL) <= set(found), \
        f"allowlisted but called: {sorted(set(ONLY_TESTS_CALL) - set(found))}"
    dead = [where for name, where in found.items()
            if name not in ONLY_TESTS_CALL]
    assert not dead, "definitions no code calls:\n" + "\n".join(dead)


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
