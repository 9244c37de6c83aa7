"""Mutation checks: each mutant breaks one rule that an exactness proof, a
work bound or an early stop relies on, and the tests named beside it must
catch it.

Run from anywhere with ``python tests/mutants.py``. It first runs every
named test on the unchanged source, then, one mutant at a time, copies
``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to a fresh
temporary directory, replaces the mutant's exact text (which must occur
once) and runs the mutant's tests there with ``pytest -x`` in a
subprocess. It exits 1 if a text is missing, if the unchanged source
fails a named test, or if a mutant survives. The file name does not match
``test_*.py``, so tier-1 does not collect it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "_sweeps returns before it yields the confirming sweep",
        "src/synchro/cir.py",
        "        yield colors, new_rank\n        if new_rank == rank:\n            return\n",
        "        if new_rank == rank:\n            return\n        yield colors, new_rank\n",
        ("tests/test_cir.py::test_cir_records_the_confirming_sweep_of_a_discrete_coloring",),
    ),
    Mutant(
        "_converge loses its rank-|C| stop",
        "src/synchro/cir.py",
        "        if rank == view.n:\n            break\n",
        "        pass\n",
        ("tests/test_cir.py::test_top_stops_at_the_discrete_coloring",),
    ),
    Mutant(
        "_refine_seed abandons at <=",
        "src/synchro/lattice.py",
        "if min(sizes.values()) < smaller:",
        "if min(sizes.values()) <= smaller:",
        ("tests/test_reference.py::test_enumeration_matches_unpruned_walk",),
    ),
    Mutant(
        "_refine_seed loses its known-element stop",
        "src/synchro/lattice.py",
        "        if colors in known:\n            break\n",
        "",
        ("tests/test_lattice.py::test_screen_leaves_few_seeds_to_converge",),
    ),
    Mutant(
        "_refine_seed checks rank |C| before abandonment",
        "src/synchro/lattice.py",
        "        sizes: dict[int, int] = {}\n"
        "        for i in cls:\n"
        "            sizes[colors[i]] = sizes.get(colors[i], 0) + 1\n"
        "        if min(sizes.values()) < smaller:\n"
        "            return None\n"
        "        if new_rank == view.n:\n"
        "            break\n",
        "        if new_rank == view.n:\n"
        "            break\n"
        "        sizes: dict[int, int] = {}\n"
        "        for i in cls:\n"
        "            sizes[colors[i]] = sizes.get(colors[i], 0) + 1\n"
        "        if min(sizes.values()) < smaller:\n"
        "            return None\n",
        ("tests/test_lattice.py::test_seed_that_sweeps_to_the_discrete_coloring_is_still_abandoned",),
    ),
    Mutant(
        "_sweep keeps a code-0 sum of two same-colored sources in its inline key",
        "src/synchro/cir.py",
        "key = (colors[r], c1, w) if w else (colors[r],)",
        "key = (colors[r], c1, w)",
        ("tests/test_reference.py::test_every_sweep_matches_reference",),
    ),
    Mutant(
        "_class_keys keys no clean row, so the clean rows stay with the group that keeps the id",
        "src/synchro/cir.py",
        "        clean_key = _row_key(view, ids, next(c for c in cells if c not in dirty))\n"
        "        groups.setdefault(clean_key, [])\n",
        "        pass\n",
        ("tests/test_reference.py::test_every_sweep_matches_reference_in_rounds",),
    ),
    Mutant(
        "_rounds reads a class's keys after earlier classes of the round have moved",
        "src/synchro/cir.py",
        "keyed = [(k, *_class_keys(view, ids, members[k], rows, dirty)) for k, rows in touched.items()]",
        "keyed = ((k, *_class_keys(view, ids, members[k], rows, dirty)) for k, rows in touched.items())",
        ("tests/test_reference.py::test_every_sweep_matches_reference_in_rounds",),
    ),
    Mutant(
        "_rounds moves the group of the clean rows without dirtying the rows it feeds",
        "src/synchro/cir.py",
        "                moved += cells\n",
        "                moved += cells if key != clean_key else []\n",
        ("tests/test_reference.py::test_every_sweep_matches_reference_in_rounds",),
    ),
    Mutant(
        "_rounds lets the first group of a class keep its id instead of the largest",
        "src/synchro/cir.py",
        "largest = max(size, key=size.get)",
        "largest = next(iter(size))",
        ("tests/test_cir.py::test_top_keys_few_rows_in_rounds",),
    ),
    Mutant(
        "is_balanced compares each row with the previous row of its class",
        "src/synchro/balance.py",
        "            c, sums_c = first.setdefault(color, (d, sums))\n",
        "            c, sums_c = first.get(color, (d, sums))\n            first[color] = (d, sums)\n",
        ("tests/test_reference.py::test_balance_and_lattice_match_reference",),
    ),
    Mutant(
        "is_balanced reads the rows of a discrete coloring",
        "src/synchro/balance.py",
        "if partition.rank < view.n:",
        "if partition.rank <= view.n:",
        ("tests/test_balance.py::test_a_discrete_coloring_is_balanced_without_reading_a_row",),
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(root: Path, tests) -> int:
    """Run ``tests`` under ``root`` with ``-x``; pytest's exit code."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # pyproject adds src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    faults = []
    for m in MUTANTS:
        found = (ROOT / m.path).read_text(encoding="utf-8").count(m.text)
        if found != 1:
            faults.append(f"{m.name}: its text occurs {found} times in {m.path}")
    if faults:
        print("\n".join(faults))
        return 1
    named = sorted({t for m in MUTANTS for t in m.tests})
    if _pytest(ROOT, named) != 0:
        print("the unchanged source fails a named test")
        return 1
    for m in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _copy(root)
            target = root / m.path
            target.write_text(target.read_text(encoding="utf-8").replace(m.text, m.replacement),
                              encoding="utf-8")
            code = _pytest(root, m.tests)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{verdict:<9}  {m.name}  ({time.perf_counter() - start:.1f} s)", flush=True)
        if code != 1:
            faults.append(m.name)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
