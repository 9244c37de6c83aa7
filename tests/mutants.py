"""Mutation checks: each mutant breaks one rule that an exactness proof, a
work bound, an early stop or a documented contract relies on, and the
tests named beside it must catch it.

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


_SCREEN = "tests/test_reference.py::test_screen_keeps_exactly_the_seeds_that_survive_one_sweep"
_RK4 = "tests/test_dynamics.py::TestSimulation"

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
    Mutant(
        "_surviving_masks yields a block's survivors unsorted",
        "src/synchro/lattice.py",
        "yield from sorted(survivors)",
        "yield from survivors",
        (f"{_SCREEN}[two_edge]",),
    ),
    Mutant(
        "_surviving_masks lets a key held by smaller - 1 rows survive",
        "src/synchro/lattice.py",
        "if smaller and not any(hist[1:smaller]):",
        "if smaller and not any(hist[1:smaller - 1]):",
        (f"{_SCREEN}[two_edge]",),
    ),
    Mutant(
        "moved_key drops the joined side's sum instead of merging the moved source into it",
        "src/synchro/lattice.py",
        "got = merge(old[1 + t], w) if old[1 + t] else w",
        "got = w",
        (f"{_SCREEN}[two_edge]",),
    ),
    Mutant(
        "moved_key swaps the sums from the two sides",
        "src/synchro/lattice.py",
        "(pattern & 1, rest, got) if t else (pattern & 1, got, rest)",
        "(pattern & 1, got, rest) if t else (pattern & 1, rest, got)",
        (f"{_SCREEN}[two_edge]",),
    ),
    Mutant(
        "_surviving_masks does not flip a self-loop's source bit when its cell moves",
        "src/synchro/lattice.py",
        "                own |= 1 << j\n",
        "                pass\n",
        (f"{_SCREEN}[self_loop_ring]",),
    ),
    Mutant(
        "_surviving_masks leaves the moved cell's side as it was",
        "src/synchro/lattice.py",
        "                side[c] ^= 1\n",
        "",
        (f"{_SCREEN}[two_edge]",),
    ),
    Mutant(
        "_surviving_masks drops the histogram update of the key a row leaves",
        "src/synchro/lattice.py",
        "                        hist[n - 1] += 1\n",
        "",
        (f"{_SCREEN}[mixed]",),
    ),
    Mutant(
        "_surviving_masks moves only one cell at a block boundary",
        "src/synchro/lattice.py",
        "                moved ^= bit\n",
        "                moved = 0\n",
        (f"{_SCREEN}[two_edge]",),
    ),
    Mutant(
        "join unions the cells of a class of its first input only",
        "src/synchro/lattice.py",
        "for part in (a, b):",
        "for part in (a,):",
        ("tests/test_lattice.py::test_join_merges_through_chains",),
    ),
    Mutant(
        "_power_stack keeps a power that overflowed",
        "src/synchro/dynamics.py",
        "            if not np.isfinite(doubled).all():\n                break\n",
        "",
        (f"{_RK4}::test_zero_start_stays_zero_under_a_blowing_up_field",),
    ),
    Mutant(
        "_integrate_rk4 starts each stacked block from the row after the one that ends the block before",
        "src/synchro/dynamics.py",
        "sources = out[: blocks * depth : depth]",
        "sources = out[1 : blocks * depth + 1 : depth]",
        (f"{_RK4}::test_fast_and_slow_ode_paths_agree",),
    ),
    Mutant(
        "_integrate_rk4 runs the Horner stages of a step on A in reverse order",
        "src/synchro/dynamics.py",
        "stages = [vals * h for h in (dt / 4.0, dt / 3.0, dt / 2.0, dt)]",
        "stages = [vals * h for h in (dt, dt / 2.0, dt / 3.0, dt / 4.0)]",
        (f"{_RK4}::test_dense_propagator_above_the_stack_bound_steps_one_at_a_time",),
    ),
    Mutant(
        "ProductMonoid._kappa calls its parts' _kappa, not the default_kappa they may override",
        "src/synchro/monoid.py",
        "return sum(p.default_kappa()(v) for p, v in zip(self.parts, value))",
        "return sum(p._kappa(v) for p, v in zip(self.parts, value))",
        ("tests/test_monoid.py::test_composite_specs_call_a_part_that_overrides_default_kappa",),
    ),
    Mutant(
        "WithAnnihilator._kappa calls its inner spec's _kappa, not the default_kappa it may override",
        "src/synchro/monoid.py",
        "return self.inner.default_kappa()(value)",
        "return self.inner._kappa(value)",
        ("tests/test_monoid.py::test_composite_specs_call_a_part_that_overrides_default_kappa",),
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
