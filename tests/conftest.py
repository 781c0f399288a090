import random
import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torikit import Cone, Fan

DATA_DIR = Path(__file__).parent / "data"


def affine_space_fan(n):
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return Fan.from_cones([Cone.from_rays(basis, n)], n)


def punctured_plane_fan():
    return Fan.from_cones([Cone.from_rays([(1, 0)], 2), Cone.from_rays([(0, 1)], 2)], 2)


def projective_line_fan():
    return Fan.from_cones([Cone.from_rays([(1,)], 1), Cone.from_rays([(-1,)], 1)], 1)


def projective_plane_fan():
    e1, e2, e3 = (1, 0), (0, 1), (-1, -1)
    return Fan.from_cones(
        [Cone.from_rays([e1, e2]), Cone.from_rays([e2, e3]), Cone.from_rays([e1, e3])], 2
    )


def blowup_plane_fan():
    return Fan.from_cones(
        [Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(0, 1), (1, 1)])], 2
    )


def hirzebruch_fan():
    u1, u2, u3, u4 = (1, 0), (0, 1), (-1, 1), (0, -1)
    return Fan.from_cones(
        [
            Cone.from_rays([u1, u2]),
            Cone.from_rays([u2, u3]),
            Cone.from_rays([u3, u4]),
            Cone.from_rays([u1, u4]),
        ],
        2,
    )


def torus_fan(n):
    return Fan.from_cones([], n)


def axis_complement_fan():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    return Fan.from_cones([Cone.from_rays([e1, e3]), Cone.from_rays([e2, e3])], 3)


def line_times_torus_fan():
    return Fan.from_cones([Cone.from_rays([(1, 0)], 2)], 2)


def p1_power_cones(n):
    """The maximal cones of the fan of (P^1)^n, as lists of rays."""
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [
        [e[i] if s > 0 else tuple(-x for x in e[i]) for i, s in enumerate(signs)]
        for signs in product((1, -1), repeat=n)
    ]


def random_pointed_cone(rng: random.Random, max_rank=3, max_entry=4, require_rays=False):
    """A random strongly convex cone with small integer generators."""
    while True:
        rank = rng.randint(1, max_rank)
        count = rng.randint(1, rank + 1)
        gens = [
            tuple(rng.randint(-max_entry, max_entry) for _ in range(rank))
            for _ in range(count)
        ]
        cone = Cone.from_rays(gens, rank)
        if cone.lineality:
            continue
        if require_rays and not cone.rays:
            continue
        return cone


@pytest.fixture
def rng():
    return random.Random(20250810)
