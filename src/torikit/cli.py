"""Command line front end: parse fan documents, run analyses, emit reports.

A fan document is a JSON object with exactly the fields ``rank``,
``rays``, ``cones`` and optionally ``name``; cones are lists of ray
indices and listing the maximal cones suffices.  Every ray must be
nonzero, primitive, listed in some cone and an extremal ray of each
cone that lists it, and every cone must be strongly convex.
Each command is one row of ``COMMANDS``: its help line, its report (a
function of the fan and the parsed arguments) and its options beyond
``--json``.  It emits either a human-readable key/value listing or, with
``--json``, the same report as canonical JSON.

Exit codes: 0 success, 2 parse or validation error (an unreadable or
non-UTF-8 file, JSON nested too deeply, an integer literal longer than
the int-string digit limit of the running Python, where it has one, and
a repeated field included), 3 failed
mathematical precondition, 4 internal error (a violated invariant or a
rank mismatch, reported as ``error: internal: ...``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
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
from .semigroup import fan_coordinate_semigroup


@dataclass(frozen=True)
class FanDocument:
    rank: int
    rays: tuple[Vec, ...]
    cones: tuple[tuple[int, ...], ...]
    name: Optional[str] = None


def _fields(pairs: list) -> dict:
    fields = dict(pairs)
    if len(fields) < len(pairs):
        raise FanDocumentError("duplicate fields are not allowed")
    return fields


def parse_fan_document(text: str) -> FanDocument:
    """Strict parse of a fan document; unknown and repeated fields are rejected."""
    try:
        raw = json.loads(text, object_pairs_hook=_fields)
    except json.JSONDecodeError as exc:
        raise FanDocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except FanDocumentError:
        raise
    except RecursionError:
        raise FanDocumentError("invalid JSON: nested too deeply") from None
    except ValueError:  # longer than Python's int-string digit limit
        raise FanDocumentError("invalid JSON: integer literal too long") from None
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
    payload = {"rank": doc.rank, "rays": doc.rays, "cones": doc.cones}
    if doc.name is not None:
        payload["name"] = doc.name
    return json.dumps(payload, sort_keys=True)


def fan_from_document(doc: FanDocument) -> Fan:
    """Validate a parsed document into a fan, taking every ray as written.

    A ray that is zero, not primitive, listed in no cone, or not an
    extremal ray of a cone that lists it is rejected rather than dropped
    or rescaled, and so is a cone that is not strongly convex.

    With at most ``rank`` rays, sigma = cone(all rays) is built first and
    kept as the fan's support cone, and a cone that lists every ray is
    sigma.  When sigma has the rays' count as its dimension, the rays are
    independent and sigma is the simplex on them, so every other cone is
    its face on the listed rays, built without an elimination.  Every
    subset of the rays of a simplex spans a face of it, strongly convex
    and with each of those rays extremal, and two faces of one cone meet
    in a common face, so such a document is a fan and nothing in it is
    checked or rejected.

    Every other cone is built by :meth:`Cone._of_canonical` on its checked
    rays, and it, like sigma, must have no lineality and as many rays as it
    lists: every extremal ray of a pointed cone on primitive, distinct
    generators is one of them, so equal counts make every listed ray
    extremal.  Only a shortfall looks up the first listed ray that is not.
    """
    listed = {i for idxs in doc.cones for i in idxs}
    for idx, ray in enumerate(doc.rays):
        if not any(ray):
            raise FanDocumentError(f"ray {idx} is zero")
        if not is_primitive(ray):
            raise FanDocumentError(f"ray {idx} is not primitive")
        if idx not in listed:
            raise FanDocumentError(f"ray {idx} is not listed in any cone")
    sigma = Cone.from_rays(doc.rays, doc.rank) if len(doc.rays) <= doc.rank else None
    independent = sigma is not None and sigma.dim() == len(doc.rays)
    cones = []
    for cone_idx, idxs in enumerate(doc.cones):
        rays = sorted(doc.rays[i] for i in idxs)
        if sigma is not None and len(idxs) == len(doc.rays):
            cone = sigma
        elif independent:
            cone = Cone(doc.rank, rays)
            cone._dim = len(idxs)
        else:
            cone = Cone._of_canonical(rays, doc.rank)
        if not independent:
            if cone.lineality:
                raise FanDocumentError(f"cone {cone_idx} is not strongly convex")
            if len(cone.rays) < len(idxs):
                i = next(i for i in idxs if doc.rays[i] not in cone.rays)
                raise FanDocumentError(f"ray {i} is not an extremal ray of cone {cone_idx}")
        cones.append(cone)
    return Fan._of_cones(cones, doc.rank, sigma)


# -- report construction -----------------------------------------------------


def analyze_report(fan: Fan, args: argparse.Namespace) -> dict:
    rep = fan.report()
    ambient = rep.verdict.ambient
    return {
        "rank": fan.ambient_rank,
        "smooth": rep.smooth,
        "complete": rep.complete,
        "edge_count": rep.edge_count,
        "class_rank": rep.class_rank,
        "class_torsion": rep.class_torsion,
        "euler_characteristic": rep.euler_characteristic,
        "torus_factor_rank": rep.torus_rank,
        "quasi_affine": rep.verdict.quasi_affine,
        "failed_step": rep.verdict.failed_step,
        "ambient_generators": ambient.generators if ambient else None,
        "ambient_units": ambient.units if ambient else None,
    }


def hilbert_report(fan: Fan, args: argparse.Namespace) -> dict:
    semis = fan_coordinate_semigroup(fan)
    return {"rank": fan.ambient_rank, "generators": semis.generators, "units": semis.units}


def roots_report(fan: Fan, args: argparse.Namespace) -> dict:
    sigma, _ = fan.support_cone()
    if args.ray < 0 or args.ray >= len(sigma.rays):
        raise FanDocumentError(
            f"ray index {args.ray} out of range; the support cone has "
            f"{len(sigma.rays)} extremal rays"
        )
    ray = sigma.rays[args.ray]
    return {
        "ray_index": args.ray,
        "ray": ray,
        "radius": args.radius,
        "roots": enumerate_roots(fan_coordinate_semigroup(fan), ray, args.radius),
        "truncated_window": True,
    }


def ga_actions_report(fan: Fan, args: argparse.Namespace) -> dict:
    family = build_ga_actions(fan, start_radius=args.radius)
    # x^m has order <m, ray> / g + 1 under each derivation: they share ray, semigroup and g
    orders = [(m, family.derivations[0].nilpotency_order(m)) for m in family.semigroup.generators]
    return {
        "chosen_ray": family.chosen_ray,
        "root_degree": family.root_degree,
        "boundary_rays": family.boundary_rays,
        "characters": family.characters,
        "character_determinant": family.character_determinant,
        "character_rank": len(family.characters),
        "boundary_annihilation_verified": True,
        "derivations": [
            {
                "degree": d.degree,
                "ray_pairing": d.ray_pairing,
                "nilpotency_orders_on_generators": orders,
            }
            for d in family.derivations
        ],
    }


def decompose_report(fan: Fan, args: argparse.Namespace) -> dict:
    reduced, k, basis = fan.split_torus_factor()
    ray_index = {r: i for i, r in enumerate(reduced.rays)}
    return {
        "torus_factor_rank": k,
        "sublattice_basis": basis,
        "reduced_rank": reduced.ambient_rank,
        "reduced_rays": reduced.rays,
        "reduced_cones": sorted(
            sorted(ray_index[r] for r in c.rays) for c in reduced.maximal_cones()
        ),
    }


_RADIUS = ("--radius", {"type": int, "default": 6,
                        "help": "box radius for the degree search (default 6)"})
_RAY = ("--ray", {"type": int, "default": 0,
                  "help": "index into the support cone's extremal rays (default 0)"})

COMMANDS = {
    "analyze": ("full report: smoothness, class group, Euler characteristic, verdict",
                analyze_report, ()),
    "hilbert-basis": ("generators of the global coordinate semigroup", hilbert_report, ()),
    "roots": ("admissible derivation degrees along one extremal ray", roots_report,
              (_RADIUS, _RAY)),
    "ga-actions": ("boundary-fixing additive actions with independent characters",
                   ga_actions_report, (_RADIUS,)),
    "decompose": ("split off the maximal torus factor", decompose_report, ()),
}


# -- output ------------------------------------------------------------------


def _layout(value, indent: str = "", done: dict | None = None) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for the ints, strings,
    bools, None, lists, tuples and string-keyed dicts of a report, built in one
    pass of ``str.join`` (the json module encodes in C only without ``indent``).
    ``indent`` is the prefix of the line ``value`` starts on.  A list of ints,
    or of non-empty lists and tuples of ints, is joined without a call per item.

    A container that occurs again at the same indent, as the one nilpotency
    table of every ``ga-actions`` derivation does, is laid out once: ``done``
    maps (id, indent) to the text, for one top-level call only.  Every
    container it keys on is held by ``value`` throughout, so no id is reused
    while it is read.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if done is None:
        done = {}
    key = (id(value), indent)
    if key in done:
        return done[key]
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif (kinds <= {list, tuple} and all(value)
              and set(map(type, chain.from_iterable(value))) == {int}):
            deeper = "\n" + inner + "  "
            row_sep = "," + deeper
            items = [f"[{deeper}{row_sep.join(map(int.__repr__, row))}\n{inner}]" for row in value]
        else:
            items = [int.__repr__(v) if type(v) is int else _layout(v, inner, done) for v in value]
        text = f"[\n{inner}{sep.join(items)}\n{indent}]"
    elif isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_layout(v, inner, done)}"
                 for k, v in sorted(value.items())]
        text = f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    done[key] = text
    return text


def _emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(_layout(report) + "\n")
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
    for name, (helptext, report, options) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(report=report)
        p.add_argument("fanfile", help="path to a fan document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _parse_plain(argv) -> Optional[argparse.Namespace]:
    """The namespace argparse builds for ``<command> <fanfile> [--json] [<option>
    <int>]...``: options spelled out in full, a fan file not starting with ``-``
    and each value plain ASCII ``-?[0-9]+`` within the int-string digit limit.
    None for any other argv, which is left to argparse with its help and errors.
    """
    if len(argv) < 2 or argv[0] not in COMMANDS or argv[1][:1] == "-":
        return None
    _, report, options = COMMANDS[argv[0]]
    values = {flag: kwargs["default"] for flag, kwargs in options}
    as_json = False
    tokens = iter(argv[2:])
    for token in tokens:
        if token == "--json":
            as_json = True
            continue
        value = next(tokens, "") if token in values else ""
        digits = value[1:] if value[:1] == "-" else value
        if not (digits.isascii() and digits.isdigit()):
            return None
        try:
            values[token] = int(value)
        except ValueError:  # longer than the int-string digit limit
            return None
    return argparse.Namespace(command=argv[0], fanfile=argv[1], json=as_json, report=report,
                              **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _read_text(path: str) -> str:
    """The file at ``path`` as ``open(path, encoding="utf-8").read()`` reads it,
    universal newlines included, in four system calls (open, two reads, close).
    A text-mode read adds fstat, ioctl and lseek calls and builds a buffer and a
    decoder.  System calls slow down more than computation when the machine is
    loaded, and there a text-mode read of a fan document took longer than its parse.
    """
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:  # a directory opens, and fails to read
        exc.filename = path
        raise
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv) or _build_parser().parse_args(argv)
    try:
        text = _read_text(args.fanfile)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_fan_document(text)
        report = {"name": doc.name, **args.report(fan_from_document(doc), args)}
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
