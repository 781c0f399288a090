"""Recorded mutants of ``src/torikit``, each re-run against the tests meant to kill it.

Run from the root of a source checkout:

    python tests/mutants.py [NAME ...]

Each record names a file, an exact text that must occur in it exactly once,
the text that replaces it, and the test files expected to fail on the
mutant; or it marks the mutant equivalent, with the reason.  For each
record, ``src/``, ``tests/``, ``demos/``, ``bench/`` (which a CLI test
imports), ``README.md`` and ``pyproject.toml`` are copied to a temporary
directory, the record is applied there, and ``pytest -x -q`` runs the named
test files.  The script
exits nonzero when a mutant that is not equivalent survives, when one marked
equivalent is killed (its reason is then wrong), or when a record no longer
applies (its text is gone or occurs twice): the change that moved the code
updates the record.  pytest does not collect this file.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "bench", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: Optional[str] = None  # why no test can kill it


RECORDS = [
    Mutant(
        "strict half-grade cutoff",
        "src/torikit/semigroup.py",
        "while low < len(kept) and 2 * kept[low][0] <= grade:",
        "while low < len(kept) and 2 * kept[low][0] < grade:",
        ("tests/test_semigroup.py",),
    ),
    Mutant(
        "certificate B's last test forced True",
        "src/torikit/fan.py",
        "    return not any(all(sum(map(mul, a, p)) >= 0 for a, _ in c._facet_pairs())"
        " for c in maximal[1:])",
        "    return True",
        ("tests/test_fan.py",),
    ),
    Mutant(
        "_bareiss without clearing above the pivots",
        "src/torikit/lattice.py",
        "for i in range(0 if jordan else r + 1, m):",
        "for i in range(r + 1, m):",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "a 3 x 3 cofactor with its sign flipped",
        "src/torikit/lattice.py",
        "(B, a * i - c * g, c * d - a * f)",
        "(B, c * g - a * i, c * d - a * f)",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "the 2 x 2 adjugate transposed",
        "src/torikit/lattice.py",
        "((d, -b), (-c, a))",
        "((d, -c), (-b, a))",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "certificate B's opposite-sides test made strict",
        "src/torikit/fan.py",
        "        if sum(map(mul, a, ray_sums[other])) >= 0:",
        "        if sum(map(mul, a, ray_sums[other])) > 0:",
        ("tests/test_fan.py",),
        equivalent="the other cone's ray sum pairs with the wall normal as its opposite ray "
                   "does, and that ray cannot lie in the wall of a full-dimensional simplex, "
                   "so the pairing is never 0",
    ),
    Mutant(
        "a run of b = 2 one step short",
        "src/torikit/semigroup.py",
        "for j in range(1, m + 1)]",
        "for j in range(1, m)]",
        ("tests/test_semigroup.py",),
    ),
    Mutant(
        "f not shifted into 0 <= k < d",
        "src/torikit/semigroup.py",
        "    shift = (c + k) // d\n",
        "    shift = 0\n",
        ("tests/test_semigroup.py",),
    ),
    Mutant(
        "the plane warning one generator late",
        "src/torikit/semigroup.py",
        "    if count > MAX_PARALLELEPIPED_POINTS:",
        "    if count > MAX_PARALLELEPIPED_POINTS + 1:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "the closed form skipped for quotient cones",
        "src/torikit/semigroup.py",
        "    elif local.ambient_rank == 2:",
        "    elif local.ambient_rank == 2 and lift is None:",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "no root-condition cache",
        "src/torikit/derivations.py",
        "    known = semigroup.root_conditions.get(rho)\n",
        "    known = None\n",
        ("tests/test_derivations.py",),
    ),
    Mutant(
        "a root-condition cache that ignores the ray",
        "src/torikit/derivations.py",
        "    known = semigroup.root_conditions.get(rho)\n",
        "    known = next(iter(semigroup.root_conditions.values()), None)\n",
        ("tests/test_derivations.py",),
    ),
    Mutant(
        "the support cone's unimodularity test forced True",
        "src/torikit/fan.py",
        "len(self.rays) == n and self.support_cone().cone._is_unimodular_simplex()",
        "len(self.rays) == n and True",
        ("tests/test_fan.py",),
    ),
    Mutant(
        "the singular maximal cones never listed",
        "src/torikit/fan.py",
        "singular = [] if trivial else [m for m in reduced._maximal if not m.is_smooth()]",
        "singular = []",
        ("tests/test_fan.py",),
    ),
    Mutant(
        "the walk warning at the limit itself",
        "src/torikit/semigroup.py",
        "    if points > MAX_PARALLELEPIPED_POINTS:",
        "    if points >= MAX_PARALLELEPIPED_POINTS:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "matrix_multiply without its shape check",
        "src/torikit/lattice.py",
        "    if any(len(row) != len(B) for row in A):\n"
        "        raise DimensionError(\"matrix shapes do not match\")\n",
        "",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "the singular cones' faces searched in cone order",
        "src/torikit/fan.py",
        "faces = merge(*(m.faces() for m in singular), key=lambda f: (f.dim(), f.rays))",
        "faces = (f for m in singular for f in m.faces())",
        ("tests/test_fan.py",),
    ),
    Mutant(
        "smoothness without the simplex guard",
        "src/torikit/cone.py",
        "        return self.is_simplex() and all(\n",
        "        return all(\n",
        ("tests/test_fan.py",),
    ),
    Mutant(
        "facets without the maximality filter",
        "src/torikit/cone.py",
        "    return [meet for meet in meets if not any(meet < other for other in meets)]",
        "    return list(meets)",
        ("tests/test_cone.py",),
    ),
    Mutant(
        "a face given the dimension of the level above",
        "src/torikit/cone.py",
        "for d in range(self.dim(), len(self.lineality) - 1, -1):",
        "for d in range(self.dim() + 1, len(self.lineality) - 1, -1):",
        ("tests/test_cone.py",),
    ),
    Mutant(
        "the sieve's candidates sorted on the first normal's value",
        "src/torikit/semigroup.py",
        "graded = sorted(candidates, key=itemgetter(0))",
        "graded = sorted(candidates, key=itemgetter(1))",
        ("tests/test_semigroup.py",),
    ),
    Mutant(
        "every local cone's rays taken as its Hilbert basis",
        "src/torikit/semigroup.py",
        "    if local._is_unimodular_simplex():\n",
        "    if True:\n",
        ("tests/test_semigroup.py",),
    ),
    Mutant(
        "the rays taken to span without a full-dimensional cone",
        "src/torikit/fan.py",
        "            if self._full_cones() or (support is not None and support.cone.dim() == n):\n",
        "            if True:\n",
        ("tests/test_fan.py",),
    ),
    Mutant(
        "the cones taken as faces of a support cone that is not a simplex",
        "src/torikit/cli.py",
        "    independent = sigma is not None and sigma.dim() == len(doc.rays)\n",
        "    independent = sigma is not None\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "the dual's facet pairs kept unswapped",
        "src/torikit/cone.py",
        "self._facets = tuple(sorted((r, a) for a, r in self._dual._facets))",
        "self._facets = self._dual._facets",
        ("tests/test_cone.py",),
    ),
    Mutant(
        "the dual built on read takes its normals with the wrong sign",
        "src/torikit/cone.py",
        "self._link(Cone(self.ambient_rank, tuple(a for a, _ in pairs)))",
        "self._link(Cone(self.ambient_rank, tuple(neg(a) for a, _ in pairs)))",
        ("tests/test_cone.py",),
    ),
]


def run(record: Mutant) -> tuple[str, float]:
    """Apply one record in a fresh copy and run its tests: (outcome, seconds)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="torikit-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(source, work / name)
        target = work / record.file
        text = target.read_text()
        count = text.count(record.old)
        if count != 1:
            return f"does not apply: the old text occurs {count} times", 0.0
        target.write_text(text.replace(record.old, record.new))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *record.tests],
            cwd=work, capture_output=True, text=True,
        )
    seconds = time.perf_counter() - start
    if result.returncode == 0:
        return "survived", seconds
    if result.returncode == 1:
        return "killed", seconds
    return f"error: pytest exited {result.returncode}", seconds


def main(argv: list[str]) -> int:
    chosen = [r for r in RECORDS if not argv or r.name in argv]
    if len(chosen) < len(argv):
        print(f"unknown mutant names; the records are: {[r.name for r in RECORDS]}")
        return 2
    bad = 0
    for record in chosen:
        outcome, seconds = run(record)
        expected = "survived" if record.equivalent else "killed"
        ok = outcome == expected
        bad += not ok
        note = f"  (equivalent: {record.equivalent})" if record.equivalent else ""
        print(f"{'ok ' if ok else 'BAD'} {outcome:<8} {seconds:5.1f} s  {record.name}"
              f" [{', '.join(record.tests)}]{note}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} records as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
