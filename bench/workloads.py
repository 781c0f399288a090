"""Seeded fan-document generators for the benchmark workloads.

Nothing here imports torikit: every document is built from integer
constructions whose answers are known in advance, and each operation
carries the facts the checker needs (``Doc.facts``) so that correctness
never rests on torikit's own output.

The seed picks the concrete fans (blow-up positions, residues, subfans,
shears); the structural sizes that set the cost of a pass (face counts,
determinants, parallelepiped volumes, search boxes) follow a fixed
schedule, so passes generated from different seeds cost about the same.
Each workload has more than 100 operations, so that its p90 latency has
at least ten operations beyond it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from math import gcd
from pathlib import Path

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Doc:
    """One fan document together with what is known about it by construction."""

    name: str
    rank: int
    rays: tuple[Vec, ...]
    cones: tuple[tuple[int, ...], ...]
    facts: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "rank": self.rank,
                "rays": [list(r) for r in self.rays],
                "cones": [list(c) for c in self.cones],
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``torikit <command> <file> [args] --json``."""

    command: str
    doc: Doc
    args: tuple[str, ...] = ()

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args, "--json"]


# -- integer helpers -----------------------------------------------------------


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(m) -> list[list[int]]:
    return [list(col) for col in zip(*m)]


def matmul(a, b) -> list[list[int]]:
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def primitive(v) -> Vec:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def det(m) -> int:
    """Integer determinant by cofactor expansion (the matrices here are tiny)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(n)
        if m[0][j]
    )


def normal(vectors, inside) -> Vec:
    """Primitive vector orthogonal to ``n - 1`` independent vectors, pairing
    positively with ``inside``: the generalized cross product."""
    n = len(inside)
    w = tuple(
        (-1) ** j * det([list(v[:j]) + list(v[j + 1:]) for v in vectors]) for j in range(n)
    )
    w = primitive(w)
    return w if dot(w, inside) > 0 else tuple(-x for x in w)


def unimodular(rng: random.Random, n: int, shears: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random matrix of determinant +-1 and its exact inverse: a signed
    permutation followed by ``shears`` elementary shears with coefficient +-1."""
    perm = rng.sample(range(n), n)
    u = [[0] * n for _ in range(n)]
    for i in range(n):
        u[perm[i]][i] = rng.choice((1, -1))
    u_inv = transpose(u)
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        e = identity(n)
        e[i][j] = c
        e_inv = identity(n)
        e_inv[i][j] = -c
        u = matmul(e, u)
        u_inv = matmul(u_inv, e_inv)
    return u, u_inv


def _split_coprime(rng: random.Random, d: int, parts: int, total: int) -> list[int]:
    """``parts`` positive integers prime to ``d`` that sum to ``total``."""
    while True:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        xs = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if all(gcd(x, d) == 1 for x in xs):
            return xs


# -- complete_fans -----------------------------------------------------------------


def _complete_doc(name: str, rays, cones, rank: int) -> Doc:
    return Doc(
        name,
        rank,
        tuple(rays),
        tuple(tuple(sorted(c)) for c in cones),
        {"kind": "complete", "maximal_cones": len(cones)},
    )


def _p1_power(n: int) -> Doc:
    rays = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    cones = [tuple(2 * i + bit for i, bit in enumerate(bits)) for bits in product((0, 1), repeat=n)]
    return _complete_doc(f"P1^{n}", rays, cones, n)


def _smooth_surface(rng: random.Random, hirzebruch: bool, rays_wanted: int):
    """A smooth complete surface with ``rays_wanted`` rays: P^2 or a
    Hirzebruch surface F_a with a seeded a, blown up at seeded torus-fixed
    points.  Rays are kept in cyclic order, so the maximal cones are the
    consecutive pairs."""
    if not hirzebruch:
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        rays = [(1, 0), (0, 1), (-1, rng.randrange(0, 4)), (0, -1)]
    while len(rays) < rays_wanted:
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        rays.insert(i + 1, (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1]))
    m = len(rays)
    return rays, [(i, (i + 1) % m) for i in range(m)]


def complete_fans(rng: random.Random) -> list[Op]:
    # 51 fans, 102 ops.  Validation cost grows with the square of the face
    # count, which the ray count fixes, so ray counts follow a fixed
    # schedule and the seed places the blow-ups.  The schedule puts the
    # median among the 10-ray surfaces (22 ops) and p90 among the 7-ray
    # surfaces x P1 (12 ops), away from a cost-class boundary.
    docs = [_p1_power(n) for n in (2, 3, 4)]
    for k, wanted in enumerate([4] * 5 + [6] * 7 + [8] * 7 + [10] * 11):
        rays, cones = _smooth_surface(rng, k % 2 == 1, wanted)
        docs.append(_complete_doc(f"surface {wanted} rays", rays, cones, 2))
    for k, wanted in enumerate([3] * 4 + [5] * 8 + [7] * 6):
        rays, cones = _smooth_surface(rng, wanted > 3 and k % 2 == 1, wanted)
        rays3 = [r + (0,) for r in rays] + [(0, 0, 1), (0, 0, -1)]
        cones3 = [c + (wanted + t,) for c in cones for t in (0, 1)]
        docs.append(_complete_doc(f"surface {wanted} rays x P1", rays3, cones3, 3))
    return [Op(cmd, d) for d in docs for cmd in ("analyze", "decompose")]


# -- hilbert_bases -----------------------------------------------------------------


def _cone_doc(name: str, rays, rank: int, normals, unit_axis=None) -> Doc:
    """A single-cone fan.

    ``normals`` are the primitive inner facet normals of the cone; they are
    the extremal rays of the dual, so they must be among the Hilbert basis.
    A cone spanning the hyperplane x_k = 0 (``unit_axis`` k) has the units
    +-e_k, and its normals are the ones with a zero k-th coordinate.
    The cones are not moved by lattice automorphisms: the cost of the box
    enumeration depends on the coordinates and on their order, so a seeded
    automorphism would change a slot's cost by up to half."""
    facts = {"kind": "cone", "facet_normals": sorted(normals), "unit_axis": unit_axis}
    return Doc(name, rank, tuple(rays), (tuple(range(len(rays))),), facts)


def _simplicial(rng: random.Random, rank: int, d: int, total: int) -> Doc:
    """cone(e_1..e_{n-1}, v) with v = (a_1..a_{n-1}, d) and sum(a) = total.

    |det| = d; the dual's box volume is (d+1)^(n-1) (total+2), fixed per
    slot (within +-3 of ``total`` in rank 2).  Every a_i is prime to d so
    that every facet normal is primitive."""
    if rank == 2:
        a = [rng.choice([x for x in range(total - 3, total + 4) if gcd(x, d) == 1])]
    else:
        a = _split_coprime(rng, d, rank - 1, total)
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank - 1)]
    rays = basis + [tuple(a) + (d,)]
    normals = [normal([r for r in rays if r != skip], skip) for skip in rays]
    return _cone_doc(f"simplicial rank {rank} det {d}", rays, rank, normals)


def _quadrilateral(rng: random.Random, m: int, n: int) -> Doc:
    """The rank-3 cone over the lattice quadrilateral (0,0),(m,0),(p,q),(0,n)
    at height one, with (p, q) seeded as (m+1, n) or (m, n+1), which cost
    about the same: four rays, so the dual is not simplicial."""
    p, q = rng.choice(((m + 1, n), (m, n + 1)))
    rays = [(0, 0, 1), (m, 0, 1), (p, q, 1), (0, n, 1)]
    normals = [
        normal([rays[i], rays[(i + 1) % 4]], rays[(i + 2) % 4]) for i in range(4)
    ]
    return _cone_doc(f"quadrilateral {m}x{n}", rays, 3, normals)


def _plane_in_space(rng: random.Random, d: int) -> Doc:
    """A rank-2 cone cone(e1, (a, d, 0)) inside rank 3: its dual has a line,
    which torikit splits off through Smith form."""
    a = rng.choice([x for x in range(d // 2 - 3, d // 2 + 4) if gcd(x, d) == 1])
    normals = [(0, 1, 0), (d, -a, 0)]
    return _cone_doc(f"plane det {d} in rank 3", [(1, 0, 0), (a, d, 0)], 3, normals, unit_axis=2)


def hilbert_bases(rng: random.Random) -> list[Op]:
    # 104 ops: each size below appears 8 times with seeded residues.  Sizes
    # are listed from cheap to dear in cost classes of 40, 24, 24 and 16
    # ops, so the median falls inside the second class and p90 inside the
    # last, away from a class boundary.
    sizes = [
        lambda: _plane_in_space(rng, 30),
        lambda: _simplicial(rng, 3, 7, 5),
        lambda: _simplicial(rng, 2, 40, 20),
        lambda: _quadrilateral(rng, 2, 2),
        lambda: _quadrilateral(rng, 3, 2),
        lambda: _simplicial(rng, 4, 3, 3),
        lambda: _quadrilateral(rng, 4, 3),
        lambda: _simplicial(rng, 3, 9, 6),
        lambda: _simplicial(rng, 2, 60, 30),
        lambda: _simplicial(rng, 4, 4, 3),
        lambda: _plane_in_space(rng, 60),
        lambda: _simplicial(rng, 3, 11, 8),
        lambda: _simplicial(rng, 2, 80, 40),
    ]
    return [Op("hilbert-basis", make()) for _ in range(8) for make in sizes]


# -- quasi_affine_actions --------------------------------------------------------------


def _orthant_subfan(rng: random.Random, rank: int, extra: int) -> Doc:
    """A subfan of the positive orthant that holds every ray e_i, with
    ``extra`` seeded higher-dimensional faces, moved by a seeded shear U.

    The rays U e_i form a lattice basis, so the fan is smooth with trivial
    class group (quasi-affine); the coordinate semigroup is generated by
    the dual basis, the rows of U^-1."""
    faces = [c for k in range(2, rank + 1) for c in combinations(range(rank), k)]
    chosen = rng.sample(faces, extra)
    cones = list(chosen)
    cones += [(i,) for i in range(rank) if not any(i in c for c in chosen)]
    u, u_inv = unimodular(rng, rank, shears=2)
    rays = tuple(tuple(u[j][i] for j in range(rank)) for i in range(rank))
    return Doc(
        f"orthant subfan rank {rank}",
        rank,
        rays,
        tuple(sorted(cones)),
        {
            "kind": "quasi_affine",
            "full_cones": sum(1 for c in chosen if len(c) == rank),
            "dual_basis": sorted(tuple(row) for row in u_inv),
        },
    )


def quasi_affine_actions(rng: random.Random) -> list[Op]:
    # 46 fans, 114 ops.  ga-actions starts its degree search in the box of
    # radius 4, where the sheared dual basis always holds a root, so each
    # call searches 9^n degrees once.  The 24 rank-4 ga-actions ops are a
    # fifth of the ops, so p90 falls in the middle of them; the median falls
    # among the rank-4 analyze ops.  Both stayed within 3% across seeds.
    ops = []
    for rank, fans, commands in ((2, 12, ("analyze", "ga-actions", "roots")),
                                 (3, 10, ("analyze", "ga-actions", "roots")),
                                 (4, 24, ("analyze", "ga-actions"))):
        for k in range(fans):
            doc = _orthant_subfan(rng, rank, k % (2 if rank == 2 else 4))
            ops += [Op(c, doc, _ARGS.get(c, ())) for c in commands]
    return ops


_ARGS = {"ga-actions": ("--radius", "4"), "roots": ("--radius", "2")}


# -- registry ----------------------------------------------------------------------------

#: name -> (generator, why the workload is in the benchmark)
WORKLOADS = {
    "complete_fans": (
        complete_fans,
        "smooth complete fans: face-pair validation in Fan.from_cones dominates; no semigroup or root work",
    ),
    "hilbert_bases": (
        hilbert_bases,
        "single cones with controlled |det|: parallelepiped box enumeration and the sieve dominate",
    ),
    "quasi_affine_actions": (
        quasi_affine_actions,
        "sheared orthant subfans: verdict plus the (2r+1)^n degree search of ga-actions and roots",
    ),
}


def generate(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload``; the same seed gives the same ops."""
    make, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}:{seed}"))


def write_documents(ops: list[Op], directory: Path) -> list[list[str]]:
    """Write each distinct document once; return the argv of every op."""
    paths: dict[int, str] = {}
    argvs = []
    for op in ops:
        key = id(op.doc)
        if key not in paths:
            path = directory / f"doc{len(paths):03d}.json"
            path.write_text(op.doc.to_json(), encoding="utf-8")
            paths[key] = str(path)
        argvs.append(op.argv(paths[key]))
    return argvs
