"""CI gate: no DeprecationWarning originates from inside ``repro``.

Two phases:

* **dynamic** — imports every module of the package with warnings
  recorded and fails if any :class:`DeprecationWarning` is attributed
  to a file under the package source tree.  Out-of-tree warnings
  (third-party libraries, callers exercising the deprecated aliases
  on purpose) are ignored — the gate pins that *our own code* never
  goes through a deprecated path at import time;
* **static** — scans the sources (package plus ``examples/`` and
  ``benchmarks/``, *not* tests, which exercise the aliases on
  purpose) for names that only survive as deprecated aliases: the
  result class names that predate the unified results API
  (``LerResult`` & co).  Import-time
  checking alone cannot see a name that would warn at *use* time.

Usage::

    python -m repro.tools.check_deprecations
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import sys
import warnings
from pathlib import Path
from typing import List, Tuple


def iter_module_names() -> List[str]:
    """Every importable module name under the ``repro`` package."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        # ``__main__`` modules run the CLI on import; skip them.
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        names.append(info.name)
    return names


def collect_in_tree_deprecations() -> List[Tuple[str, str]]:
    """(module, warning) pairs for in-tree DeprecationWarnings."""
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    offences: List[Tuple[str, str]] = []
    for name in iter_module_names():
        # Re-import from scratch so import-time warnings fire again.
        for cached in [
            key
            for key in sys.modules
            if key == name or key.startswith(name + ".")
        ]:
            del sys.modules[cached]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DeprecationWarning)
            importlib.import_module(name)
        for warning in caught:
            if not issubclass(
                warning.category, DeprecationWarning
            ):
                continue
            origin = os.path.abspath(warning.filename)
            if origin.startswith(package_root):
                offences.append(
                    (name, f"{warning.filename}:{warning.lineno}: "
                           f"{warning.message}")
                )
    return offences


#: Pre-PR-3 result class names that only survive as aliases.
DEPRECATED_RESULT_NAMES = frozenset(
    {
        "LerResult",
        "BatchedLerCounts",
        "SweepPoint",
        "LerSweep",
        "ShardRecord",
    }
)


def scan_static_deprecations(
    roots: List[Path],
) -> List[Tuple[str, str]]:
    """(location, offence) pairs for alias spellings in the sources:
    every ``Name`` load of a deprecated result class name."""
    offences: List[Tuple[str, str]] = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)
            )
            for node in ast.walk(tree):
                where = f"{path}:{node.lineno}" if hasattr(
                    node, "lineno"
                ) else str(path)
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    if node.id in DEPRECATED_RESULT_NAMES:
                        offences.append(
                            (
                                where,
                                f"pre-PR-3 result name {node.id!r}; "
                                f"use the canonical class from "
                                f"repro.experiments.results",
                            )
                        )
    return offences


def default_static_roots() -> List[Path]:
    """Package sources + examples/ + benchmarks/ (never tests/)."""
    import repro

    package = Path(repro.__file__).resolve().parent
    roots = [package]
    repo = package.parent.parent
    for extra in ("examples", "benchmarks"):
        candidate = repo / extra
        if candidate.is_dir():
            roots.append(candidate)
    return roots


def main() -> int:
    offences = collect_in_tree_deprecations()
    if offences:
        for module, detail in offences:
            print(f"FAIL importing {module}: {detail}")
        print(
            f"{len(offences)} DeprecationWarning(s) raised from "
            f"inside src/repro"
        )
        return 1
    static = scan_static_deprecations(default_static_roots())
    if static:
        for where, detail in static:
            print(f"FAIL {where}: {detail}")
        print(
            f"{len(static)} deprecated spelling(s) in repo-internal "
            f"source"
        )
        return 1
    print(
        "no DeprecationWarning originates from inside the repro "
        "package; no deprecated alias spellings in repo-internal "
        "source"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
