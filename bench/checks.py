"""Known-answer checks for the benchmark's CLI reports.

Every expectation comes from how the document was built (``Doc.facts``
and the document itself), never from another torikit run.  ``check``
returns a list of problems; an empty list means the report is correct.
"""

from __future__ import annotations

from itertools import product

from workloads import Op, dot

EXPECTED_EXIT = 0


def check(op: Op, exit_code: int, report) -> list[str]:
    """Problems with one operation's exit code and parsed ``--json`` report."""
    if exit_code != EXPECTED_EXIT:
        return [f"exit code {exit_code}, expected {EXPECTED_EXIT}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    problems: list[str] = []
    try:
        _CHECKS[op.command](op, report, problems)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    if report.get("name") != op.doc.name:
        problems.append("name not echoed")
    return problems


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _analyze(op: Op, rep: dict, problems: list[str]) -> None:
    doc = op.doc
    facts = doc.facts
    _expect(problems, "rank", rep["rank"], doc.rank)
    _expect(problems, "smooth", rep["smooth"], True)
    _expect(problems, "edge_count", rep["edge_count"], len(doc.rays))
    _expect(problems, "torus_factor_rank", rep["torus_factor_rank"], 0)
    _expect(problems, "class_torsion", rep["class_torsion"], [])
    if facts["kind"] == "complete":
        _expect(problems, "complete", rep["complete"], True)
        _expect(problems, "quasi_affine", rep["quasi_affine"], False)
        _expect(problems, "failed_step", rep["failed_step"], "class_group")
        _expect(problems, "class_rank", rep["class_rank"], len(doc.rays) - doc.rank)
        _expect(problems, "euler_characteristic", rep["euler_characteristic"], facts["maximal_cones"])
    else:
        _expect(problems, "complete", rep["complete"], False)
        _expect(problems, "quasi_affine", rep["quasi_affine"], True)
        _expect(problems, "failed_step", rep["failed_step"], None)
        _expect(problems, "class_rank", rep["class_rank"], 0)
        _expect(problems, "euler_characteristic", rep["euler_characteristic"], facts["full_cones"])
        _expect(problems, "ambient_generators",
                sorted(map(tuple, rep["ambient_generators"])), facts["dual_basis"])
        _expect(problems, "ambient_units", rep["ambient_units"], [])


def _decompose(op: Op, rep: dict, problems: list[str]) -> None:
    doc = op.doc
    rays = sorted(doc.rays)
    index = {r: i for i, r in enumerate(rays)}
    cones = sorted(sorted(index[doc.rays[i]] for i in c) for c in doc.cones)
    _expect(problems, "torus_factor_rank", rep["torus_factor_rank"], 0)
    _expect(problems, "reduced_rank", rep["reduced_rank"], doc.rank)
    _expect(problems, "reduced_rays", rep["reduced_rays"], [list(r) for r in rays])
    _expect(problems, "reduced_cones", rep["reduced_cones"], cones)


def _hilbert(op: Op, rep: dict, problems: list[str]) -> None:
    doc = op.doc
    axis = doc.facts["unit_axis"]
    gens = [tuple(g) for g in rep["generators"]]
    units = [tuple(u) for u in rep["units"]]
    _expect(problems, "rank", rep["rank"], doc.rank)
    _expect(problems, "units", [tuple(abs(x) for x in u) for u in units],
            [] if axis is None else [tuple(int(k == axis) for k in range(doc.rank))])
    for g in gens:
        if any(dot(g, r) < 0 for r in doc.rays):
            problems.append(f"generator {g} pairs negatively with a ray")
    # generators are unique up to units, so compare them with the unit coordinate zeroed
    reduced = {tuple(0 if k == axis else x for k, x in enumerate(g)) for g in gens}
    missing = [w for w in doc.facts["facet_normals"] if w not in reduced]
    if missing:
        problems.append(f"extremal dual rays missing from the basis: {missing}")


def _is_demazure_root(doc, ray, e) -> bool:
    """<e, ray> = -1 and <e, r> >= 0 for the other rays: the roots of a
    smooth cone, whose rays form a lattice basis."""
    return dot(e, ray) == -1 and all(dot(e, r) >= 0 for r in doc.rays if r != ray)


def _roots(op: Op, rep: dict, problems: list[str]) -> None:
    doc = op.doc
    radius = int(op.args[op.args.index("--radius") + 1])
    ray = min(doc.rays)
    _expect(problems, "ray", tuple(rep["ray"]), ray)
    _expect(problems, "radius", rep["radius"], radius)
    want = sorted(
        e for e in product(range(-radius, radius + 1), repeat=doc.rank)
        if _is_demazure_root(doc, ray, e)
    )
    _expect(problems, "roots", sorted(map(tuple, rep["roots"])), want)
    if any(dot(e, ray) >= 0 for e in map(tuple, rep["roots"])):
        problems.append("a root does not pair negatively with its ray")


def _ga_actions(op: Op, rep: dict, problems: list[str]) -> None:
    doc = op.doc
    chosen = tuple(rep["chosen_ray"])
    _expect(problems, "chosen_ray", chosen, min(doc.rays))
    _expect(problems, "boundary_rays",
            sorted(map(tuple, rep["boundary_rays"])), sorted(r for r in doc.rays if r != chosen))
    _expect(problems, "character_rank", rep["character_rank"], doc.rank)
    _expect(problems, "derivation count", len(rep["derivations"]), doc.rank)
    _expect(problems, "boundary_annihilation_verified", rep["boundary_annihilation_verified"], True)
    if rep["character_determinant"] == 0:
        problems.append("character determinant is 0")
    for e in [rep["root_degree"]] + rep["characters"]:
        if not _is_demazure_root(doc, chosen, tuple(e)):
            problems.append(f"{e} is not a root along {chosen}")


_CHECKS = {
    "analyze": _analyze,
    "decompose": _decompose,
    "hilbert-basis": _hilbert,
    "roots": _roots,
    "ga-actions": _ga_actions,
}
