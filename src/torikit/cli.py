"""Command line front end: parse fan documents, run analyses, emit reports.

A fan document is a JSON object with exactly the fields ``rank``,
``rays``, ``cones`` and optionally ``name``; cones are lists of ray
indices and listing the maximal cones suffices.  Every ray must be
nonzero, primitive, listed in some cone and an extremal ray of each
cone that lists it.
Every command emits either a human-readable key/value listing or, with
``--json``, the same report as canonical JSON.

Exit codes: 0 success, 2 parse or validation error, 3 failed
mathematical precondition, 4 internal error (a violated invariant or a
rank mismatch, reported as ``error: internal: ...``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .cone import Cone
from .derivations import build_ga_actions, enumerate_roots
from .errors import (
    DimensionError,
    FanDocumentError,
    IntegrityError,
    NotAFanError,
    PreconditionError,
)
from .fan import Fan
from .lattice import Vec, is_primitive
from .semigroup import fan_coordinate_semigroup, hilbert_basis


@dataclass(frozen=True)
class FanDocument:
    rank: int
    rays: tuple[Vec, ...]
    cones: tuple[tuple[int, ...], ...]
    name: Optional[str] = None


def parse_fan_document(text: str) -> FanDocument:
    """Strict parse of a fan document; unknown fields are rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FanDocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise FanDocumentError("fan document must be a JSON object")
    unknown = set(raw) - {"rank", "rays", "cones", "name"}
    if unknown:
        raise FanDocumentError(f"unknown fields: {sorted(unknown)}")
    missing = {"rank", "rays", "cones"} - set(raw)
    if missing:
        raise FanDocumentError(f"missing fields: {sorted(missing)}")

    rank = raw["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise FanDocumentError("field 'rank' must be a non-negative integer")

    rays = []
    if not isinstance(raw["rays"], list):
        raise FanDocumentError("field 'rays' must be a list of integer vectors")
    for idx, ray in enumerate(raw["rays"]):
        if (
            not isinstance(ray, list)
            or len(ray) != rank
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in ray)
        ):
            raise FanDocumentError(f"ray {idx} is not an integer vector of length {rank}")
        rays.append(tuple(ray))
    if len(set(rays)) != len(rays):
        raise FanDocumentError("duplicate rays are not allowed")

    cones = []
    if not isinstance(raw["cones"], list):
        raise FanDocumentError("field 'cones' must be a list of index lists")
    for idx, cone in enumerate(raw["cones"]):
        if not isinstance(cone, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in cone
        ):
            raise FanDocumentError(f"cone {idx} is not a list of ray indices")
        if any(i < 0 or i >= len(rays) for i in cone):
            raise FanDocumentError(f"cone {idx} has a ray index out of range")
        if len(set(cone)) != len(cone):
            raise FanDocumentError(f"cone {idx} repeats a ray index")
        cones.append(tuple(cone))

    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise FanDocumentError("field 'name' must be a string")
    return FanDocument(rank, tuple(rays), tuple(cones), name)


def serialize_fan_document(doc: FanDocument) -> str:
    payload = {
        "rank": doc.rank,
        "rays": [list(r) for r in doc.rays],
        "cones": [list(c) for c in doc.cones],
    }
    if doc.name is not None:
        payload["name"] = doc.name
    return json.dumps(payload, sort_keys=True)


def fan_from_document(doc: FanDocument) -> Fan:
    """Validate a parsed document into a fan, taking every ray as written.

    A ray that is zero, not primitive, listed in no cone, or not an
    extremal ray of a strongly convex cone that lists it is rejected
    rather than dropped or rescaled.
    """
    listed = {i for idxs in doc.cones for i in idxs}
    for idx, ray in enumerate(doc.rays):
        if not any(ray):
            raise FanDocumentError(f"ray {idx} is zero")
        if not is_primitive(ray):
            raise FanDocumentError(f"ray {idx} is not primitive")
        if idx not in listed:
            raise FanDocumentError(f"ray {idx} is not listed in any cone")
    cones = []
    for cone_idx, idxs in enumerate(doc.cones):
        cone = Cone.from_rays([doc.rays[i] for i in idxs], doc.rank)
        if cone.is_strongly_convex():
            for i in idxs:
                if doc.rays[i] not in cone.rays:
                    raise FanDocumentError(
                        f"ray {i} is not an extremal ray of cone {cone_idx}"
                    )
        cones.append(cone)
    return Fan.from_cones(cones, doc.rank)


# -- report construction -----------------------------------------------------


def _vec_list(vs) -> list[list[int]]:
    return [list(v) for v in vs]


def analyze_report(doc: FanDocument, fan: Fan) -> dict:
    rep = fan.report()
    verdict = rep.verdict
    out = {
        "name": doc.name,
        "rank": fan.ambient_rank,
        "smooth": rep.smooth,
        "complete": rep.complete,
        "edge_count": rep.edge_count,
        "class_rank": rep.class_rank,
        "class_torsion": list(rep.class_torsion),
        "euler_characteristic": rep.euler_characteristic,
        "torus_factor_rank": rep.torus_rank,
        "quasi_affine": verdict.quasi_affine,
        "failed_step": verdict.failed_step,
        "ambient_generators": _vec_list(verdict.ambient.generators) if verdict.ambient else None,
        "ambient_units": _vec_list(verdict.ambient.units) if verdict.ambient else None,
    }
    return out


def hilbert_report(doc: FanDocument, fan: Fan) -> dict:
    semis = fan_coordinate_semigroup(fan)
    return {
        "name": doc.name,
        "rank": fan.ambient_rank,
        "generators": _vec_list(semis.generators),
        "units": _vec_list(semis.units),
    }


def roots_report(doc: FanDocument, fan: Fan, ray_index: int, radius: int) -> dict:
    sigma, _ = fan.support_cone()
    if ray_index < 0 or ray_index >= len(sigma.rays):
        raise FanDocumentError(
            f"ray index {ray_index} out of range; the support cone has "
            f"{len(sigma.rays)} extremal rays"
        )
    semis = hilbert_basis(sigma.dual())
    roots = enumerate_roots(semis, sigma.rays[ray_index], radius)
    return {
        "name": doc.name,
        "ray_index": ray_index,
        "ray": list(sigma.rays[ray_index]),
        "radius": radius,
        "roots": _vec_list(roots),
        "truncated_window": True,
    }


def ga_actions_report(doc: FanDocument, fan: Fan, radius: int) -> dict:
    family = build_ga_actions(fan, start_radius=radius)
    derivations = []
    for d in family.derivations:
        orders = [
            [list(m), d.nilpotency_order(m)] for m in family.semigroup.generators
        ]
        derivations.append({
            "degree": list(d.degree),
            "ray_pairing": d.ray_pairing,
            "nilpotency_orders_on_generators": orders,
        })
    return {
        "name": doc.name,
        "chosen_ray": list(family.chosen_ray),
        "root_degree": list(family.root_degree),
        "boundary_rays": _vec_list(family.boundary_rays),
        "characters": _vec_list(family.characters),
        "character_determinant": family.character_determinant,
        "character_rank": len(family.characters),
        "boundary_annihilation_verified": True,
        "derivations": derivations,
    }


def decompose_report(doc: FanDocument, fan: Fan) -> dict:
    reduced, k, basis = fan.split_torus_factor()
    ray_index = {r: i for i, r in enumerate(reduced.rays)}
    reduced_cones = sorted(
        sorted(ray_index[r] for r in c.rays)
        for c in reduced.maximal_cones()
    )
    return {
        "name": doc.name,
        "torus_factor_rank": k,
        "sublattice_basis": _vec_list(basis),
        "reduced_rank": reduced.ambient_rank,
        "reduced_rays": _vec_list(reduced.rays),
        "reduced_cones": [list(c) for c in reduced_cones],
    }


# -- output ------------------------------------------------------------------


def _emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    for key in sorted(report):
        value = report[key]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            out.write(f"{key}:\n")
            for item in value:
                for k2 in sorted(item):
                    out.write(f"  {k2}: {json.dumps(item[k2])}\n")
        else:
            out.write(f"{key}: {json.dumps(value)}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torikit",
        description="Exact-arithmetic analyses of rational polyhedral fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("analyze", "full report: smoothness, class group, Euler characteristic, verdict"),
        ("hilbert-basis", "generators of the global coordinate semigroup"),
        ("roots", "admissible derivation degrees along one extremal ray"),
        ("ga-actions", "boundary-fixing additive actions with independent characters"),
        ("decompose", "split off the maximal torus factor"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("fanfile", help="path to a fan document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if name in ("roots", "ga-actions"):
            p.add_argument("--radius", type=int, default=6,
                           help="box radius for the degree search (default 6)")
        if name == "roots":
            p.add_argument("--ray", type=int, default=0,
                           help="index into the support cone's extremal rays (default 0)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.fanfile, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_fan_document(text)
        fan = fan_from_document(doc)
        if args.command == "analyze":
            report = analyze_report(doc, fan)
        elif args.command == "hilbert-basis":
            report = hilbert_report(doc, fan)
        elif args.command == "roots":
            report = roots_report(doc, fan, args.ray, args.radius)
        elif args.command == "ga-actions":
            report = ga_actions_report(doc, fan, args.radius)
        elif args.command == "decompose":
            report = decompose_report(doc, fan)
        else:  # pragma: no cover
            raise AssertionError(args.command)
    except (FanDocumentError, NotAFanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IntegrityError, DimensionError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4
    _emit(report, args.json, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
