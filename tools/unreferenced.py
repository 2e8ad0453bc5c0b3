"""List definitions in ``src/`` whose names nothing else mentions.

A report, never a gate: the script always exits 0.  It walks every
module under ``src/`` with :mod:`ast` and collects the functions,
classes, methods, properties and module-level names it defines.  A
definition is then looked up by name, as a whole word, in the rest of
the tree:

* ``src/`` itself, minus the definitions' own lines;
* ``tests/``;
* ``benchmarks/``, ``examples/``, ``pyproject.toml``, ``setup.py``,
  the CI workflows and the ``*.md`` documents at the root (but
  ``CHANGES.md``, ``ROADMAP.md`` and ``ISSUE.md``, which name code
  that is gone or planned to go).

It prints two lists: names mentioned nowhere else (**unreferenced**),
and names that outside their definitions only tests mention (**tests
only**).  The match is by name, not by binding: a name that two
unrelated definitions share, or one reached only through ``getattr``
with a computed string, hides or shows up wrongly, so read each hit
before deleting it.  Dunder methods are skipped (the interpreter calls
them).

Run from the repository root::

    python tools/unreferenced.py
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Documents that record history or plans rather than the code.
_NOT_DOCS = ("CHANGES.md", "ROADMAP.md", "ISSUE.md")


def _words(paths) -> Counter:
    counts: Counter = Counter()
    for path in paths:
        counts.update(_WORD.findall(path.read_text(errors="replace")))
    return counts


def _definitions(path: Path):
    """``(name, line, kind, qualname)`` of every definition in a module:
    module-level functions, classes and assigned names, and the
    methods and class-level names of its classes (nested too)."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = "function" if not prefix else "method"
                if any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in node.decorator_list
                ):
                    kind = "property"
                yield node.name, node.lineno, kind, prefix + node.name
            elif isinstance(node, ast.ClassDef):
                yield node.name, node.lineno, "class", prefix + node.name
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield (
                            target.id, node.lineno, "name",
                            prefix + target.id,
                        )

    for name, line, kind, qualname in walk(tree.body, ""):
        if not (name.startswith("__") and name.endswith("__")):
            yield name, line, kind, qualname


def scan() -> tuple[list, list]:
    """``(unreferenced, tests_only)``, each a sorted list of
    ``(path, line, kind, qualname)``."""
    root = ROOT
    src = sorted((root / "src").rglob("*.py"))
    tests = sorted((root / "tests").rglob("*.py"))
    others = [
        *sorted((root / "benchmarks").rglob("*.py")),
        *sorted((root / "examples").rglob("*.py")),
        *sorted((root / ".github" / "workflows").glob("*.yml")),
        *[root / n for n in ("pyproject.toml", "setup.py")
          if (root / n).exists()],
        *[p for p in sorted(root.glob("*.md")) if p.name not in _NOT_DOCS],
        *sorted((root / "benchmarks").rglob("*.md")),
        *sorted((root / "examples").rglob("*.md")),
    ]
    definitions = [
        (path.relative_to(root), *found)
        for path in src for found in _definitions(path)
    ]
    defined = Counter(name for _, name, *_ in definitions)
    in_src, in_tests, elsewhere = _words(src), _words(tests), _words(others)
    unreferenced, tests_only = [], []
    for path, name, line, kind, qualname in definitions:
        if in_src[name] - defined[name] > 0 or elsewhere[name]:
            continue
        hit = (str(path), line, kind, qualname)
        (tests_only if in_tests[name] else unreferenced).append(hit)
    return sorted(unreferenced), sorted(tests_only)


def main() -> int:
    unreferenced, tests_only = scan()
    for title, hits in (
        ("unreferenced", unreferenced), ("tests only", tests_only)
    ):
        print(f"{title}: {len(hits)}")
        for path, line, kind, qualname in hits:
            print(f"  {path}:{line}  {kind:<8}  {qualname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
