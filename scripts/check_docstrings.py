#!/usr/bin/env python
"""Enforce docstrings on the public API surface (ruff-D1-equivalent).

Walks the scoped modules with ``ast`` and reports every public module,
class, function, method, or property that lacks a docstring — the same
set of findings as ``ruff check --select D1`` with magic methods and
``__init__`` exempted (D105/D107), so the check runs identically in the
offline container and in CI.

Scope (the documented public surface): the files and packages listed
in :data:`SCOPED`, mirrored by pyproject's ``[tool.ruff] include``.

Run:  python scripts/check_docstrings.py [SRC_ROOT]
"""

import ast
import os
import sys

#: Paths (relative to the src root) whose public surface must be
#: documented.
SCOPED = [
    "repro/__init__.py",
    "repro/arch/presets.py",
    "repro/arch/link.py",
    "repro/arch/noc.py",
    "repro/sched/cg.py",
    "repro/sched/placement.py",
    "repro/sim/performance.py",
    "repro/sim/power.py",
    "repro/explore",
    "repro/serve",
    "repro/fleet",
    "repro/scale",
    "repro/perf",
    "repro/trace",
    "repro/faults",
    "repro/reproduce",
]


def scoped_files(src_root):
    """Every python file the docstring contract covers.

    A scoped entry that no longer exists raises instead of silently
    shrinking the gate (e.g. after a package rename that forgot to
    update :data:`SCOPED` and the mirrored pyproject ruff include).
    """
    for entry in SCOPED:
        path = os.path.join(src_root, entry)
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, _, filenames in os.walk(path):
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            raise SystemExit(
                f"check_docstrings: scoped path {entry!r} does not exist "
                f"under {src_root!r}; update SCOPED (and pyproject "
                f"[tool.ruff] include)")


def _is_public(name):
    return not name.startswith("_")


def missing_docstrings(path):
    """``(lineno, kind, qualified name)`` for undocumented public defs."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    if ast.get_docstring(tree) is None:
        found.append((1, "module", os.path.basename(path)))

    def walk(node, prefix, in_class, public_scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                public = public_scope and _is_public(child.name)
                if public and ast.get_docstring(child) is None:
                    found.append((child.lineno, "class",
                                  prefix + child.name))
                walk(child, prefix + child.name + ".", True, public)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                if public_scope and _is_public(child.name) and \
                        ast.get_docstring(child) is None:
                    kind = "method" if in_class else "function"
                    found.append((child.lineno, kind,
                                  prefix + child.name))
                # Nested defs are implementation detail; skip their body.

    walk(tree, "", False, True)
    return found


def main(argv=None):
    """CLI entry point; prints findings and sets the exit status."""
    args = argv if argv is not None else sys.argv[1:]
    src_root = args[0] if args else "src"
    problems = []
    checked = 0
    for path in scoped_files(src_root):
        checked += 1
        for lineno, kind, name in missing_docstrings(path):
            rel = os.path.relpath(path, src_root)
            problems.append(f"{rel}:{lineno}: undocumented {kind} {name}")
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} undocumented public definition(s)",
              file=sys.stderr)
        return 1
    print(f"checked {checked} scoped modules: public API fully "
          f"documented", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
