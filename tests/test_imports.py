"""Every name a module of the package imports is used there, or marked a re-export.

No linter runs on this repository, and moving a helper from one module to
another easily leaves its old import behind.  A name imported on purpose
without being used (a re-export that ``bench/spans.py`` traces) carries
``# noqa: F401`` on its import statement.

The same parse keeps each numerical job with its one owner: no module uses
``np.roots``, ``np.poly`` or ``np.linalg.inv`` (``lti._roots``, ``_poly``
and ``_chol_inverse`` serve them) or imports ``scipy.signal``, and only
``lti`` refers to the filter band ``_band``, which its prediction kernel
``lti._predict`` builds for every other module.  Only ``lti`` imports
``json``: its ``_load_json`` and ``_json_text`` read and write every JSON
document, beside the key check ``_check_keys``.

Each refusal has one owner too: every message that the package passes to an
exception has one literal site in ``src/``, so the code that finds a
refusal is the one place that words it.  And each message is pinned: some
string in a test module holds it, so a test can tell it from the message
of a check that fired first.
"""

import ast
import builtins
import re
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from ctident import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "ctident"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# np.<name> (or numpy.<name>) that no module of the package uses
SHUNNED = {"roots", "poly", "linalg.inv"}


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name ``source`` imports, never uses and does not mark."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_checker_finds_unused_and_honours_marker():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import (pi,\n"
              "                  tau)\n"
              "from sys import argv  # noqa: F401\n"
              "x = np.zeros(1) * pi\n")
    assert unused_imports(source) == [(2, "os"), (4, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def dotted(node) -> str:
    """``a.b.c`` of an attribute chain on a name, or "" for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def owner_breaches(source: str, module: str) -> list:
    """``(line, what)`` of each use in ``source`` (the file ``module``) of a job owned elsewhere."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            head, _, rest = dotted(node).partition(".")
            if head in ("np", "numpy") and rest in SHUNNED:
                breaches.append((node.lineno, dotted(node)))
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = ["%s.%s" % (node.module, alias.name) for alias in node.names]
        else:
            imported = []
        if any((name + ".").startswith("scipy.signal.") for name in imported):
            breaches.append((node.lineno, "scipy.signal"))
        named = {getattr(node, "id", None), getattr(node, "attr", None),
                 *(name.rpartition(".")[2] for name in imported)}
        if module != "lti.py" and "_band" in named:
            breaches.append((node.lineno, "_band"))
        if module != "lti.py" and any(name.split(".")[0] == "json" for name in imported):
            breaches.append((node.lineno, "json"))
    return breaches


def test_owner_checker_finds_each_rule():
    source = ("import numpy as np\n"
              "import scipy.signal\n"
              "from scipy import signal\n"
              "from scipy.signal import lfilter\n"
              "from .lti import _band, _bands\n"
              "from scipy.linalg import inv\n"
              "r = np.roots([1.0, 2.0]) + np.polyval([1.0], 0.0)\n"
              "p = numpy.poly(r)\n"
              "q = np.linalg.inv(np.eye(2)) @ np.linalg.pinv(np.eye(2))\n"
              "b = lti._band(p, 3)\n"
              "roots = inv(q)\n"
              "import json, jsonschema\n"
              "from json import dumps\n"
              "from .lti import _json_text\n")
    breaches = [(2, "scipy.signal"), (3, "scipy.signal"), (4, "scipy.signal"), (5, "_band"),
                (7, "np.roots"), (8, "numpy.poly"), (9, "np.linalg.inv"), (10, "_band"),
                (12, "json"), (13, "json")]
    assert sorted(owner_breaches(source, "pem.py")) == breaches
    assert sorted(owner_breaches(source, "lti.py")) == [
        b for b in breaches if b[1] not in ("_band", "json")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_job_has_one_owner(path):
    assert owner_breaches(path.read_text(), path.name) == []


# every exception class the package raises: the builtins', its own and numpy's
EXCEPTIONS = {name for module in (builtins, errors, np.linalg) for name, obj in vars(module).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}


def message_sites(sources: dict) -> dict:
    """Each literal exception message in ``sources`` (name -> text) -> its ``(name, line)`` sites.

    A message is the string constant passed first to a call of an exception
    class, whether the call is raised at once or handed on to be raised
    later; a %-formatted message counts by its format string.
    """
    sites = defaultdict(list)
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            callee = dotted(node.func).rpartition(".")[2]
            text = node.args[0]
            if isinstance(text, ast.BinOp) and isinstance(text.op, ast.Mod):
                text = text.left
            if (callee in EXCEPTIONS and isinstance(text, ast.Constant)
                    and isinstance(text.value, str)):
                sites[text.value].append((name, node.lineno))
    return dict(sites)


def test_every_refusal_message_has_one_site():
    # the checker first, on a sample with two messages of two sites each
    sources = {
        "a.py": ("def f(x):\n"
                 "    if x:\n"
                 "        raise ValueError('x must be %d' % x)\n"
                 "    g(x, errors.SingularMap('map is singular'))\n"
                 "    raise TypeError(str(x))\n"),
        "b.py": ("import numpy as np\n"
                 "raise np.linalg.LinAlgError('map is singular')\n"
                 "log('x must be %d' % 1)\n"
                 "raise UnstableSystem('x must be %d' % 2)\n"),
    }
    assert message_sites(sources) == {"x must be %d": [("a.py", 3), ("b.py", 4)],
                                      "map is singular": [("a.py", 4), ("b.py", 2)]}
    sites = message_sites({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert len(sites) > 60  # the parse sees the package's messages
    assert {text: where for text, where in sites.items() if len(where) > 1} == {}


# a %-directive of a message's format string
DIRECTIVE = re.compile(r"%[-#0 +]*(?:\d+|\*)?(?:\.\d+)?[a-zA-Z%]")


def unpinned(messages, sources: dict) -> list:
    """Each of ``messages`` whose longest fixed part no string constant in ``sources`` holds.

    A fixed part is the text between a message's %-directives.  A constant
    holds it as written or as a pattern escapes it (by ``re.escape`` or by
    hand, as ``\\[1, n\\]``).  ``ast`` joins implicitly concatenated literals.
    """
    texts = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.update((node.value, re.sub(r"\\(.)", r"\1", node.value)))
    return [m for m in messages
            if not any(max(DIRECTIVE.split(m), key=len) in text for text in texts)]


def test_every_refusal_message_is_pinned():
    # the checker first: two messages pinned by joined literals and a
    # pattern, one by its fixed part, and two that no string holds
    tests = {"t.py": ('match = ("^the map is "\n'
                      '         "singular$")\n'
                      'pattern = r"^r must lie in \\[1, n\\], got 2$"\n'
                      'check("h must be a number, got %r" % "x")\n')}
    messages = ["the map is singular", "r must lie in [1, n], got %r",
                "%s must be a number, got %r", "N=%d is below %d", "the map is not invertible"]
    assert unpinned(messages, tests) == ["N=%d is below %d", "the map is not invertible"]
    # then the package's messages, against every test module but this one,
    # whose samples pin nothing
    tests = {path.name: path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))
             if path.name != Path(__file__).name}
    sites = message_sites({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert unpinned(sorted(sites), tests) == []
