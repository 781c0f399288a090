import random
import sys
from contextlib import contextmanager
from itertools import combinations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import torikit.fan as fan_module
import torikit.semigroup as semigroup_module
from torikit import Cone, Fan
from torikit.fan import SupportCone

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


@contextmanager
def pair_loop_forced(monkeypatch):
    """Make both certificates of ``Fan.from_cones`` decline, so validation runs the pair loop.

    Certificate B is patched to answer False.  Certificate A reads the
    fan's support-cone flag, so ``Fan.support_cone`` answers False while
    ``Fan._of_cones`` (the validation that ``from_cones`` and
    ``fan_from_document`` end in) runs, without keeping that answer: every
    later caller, such as the invariant in ``Fan.report``, reads the real
    flag.  Yields the list of maximal-cone tuples the pair loop was run on.
    """
    checked = []
    validating = []
    of_cones = Fan._of_cones.__func__
    support_cone = Fan.support_cone
    check_pairs = fan_module._check_pairs

    def forced_of_cones(cls, *args, **kwargs):
        validating.append(True)
        try:
            return of_cones(cls, *args, **kwargs)
        finally:
            validating.pop()

    def declined_support_cone(fan):
        return SupportCone(None, False) if validating else support_cone(fan)

    def recorded_check_pairs(maximal):
        checked.append(tuple(maximal))
        return check_pairs(maximal)

    with monkeypatch.context() as m:
        m.setattr(fan_module, "_pseudo_manifold", lambda fan: False)
        m.setattr(fan_module, "_check_pairs", recorded_check_pairs)
        m.setattr(Fan, "_of_cones", classmethod(forced_of_cones))
        m.setattr(Fan, "support_cone", declined_support_cone)
        yield checked


def counting(module, name):
    """``module.name`` wrapped so that its attribute ``calls`` counts the calls."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counted.calls += 1
        return real(*args, **kwargs)
    counted.calls = 0
    return counted


def counting_walks(monkeypatch):
    """The walks of :mod:`torikit.semigroup` that a Hilbert basis may take, the
    sieve and the plane continued fraction, patched to count their calls."""
    walks = {name: counting(semigroup_module, name) for name in ("_sieved_points", "_plane_basis")}
    for name, walk in walks.items():
        monkeypatch.setattr(semigroup_module, name, walk)
    return walks


def random_shear(rng: random.Random, vectors, rank, steps):
    """The vectors under a product of random elementary column operations."""
    out = [list(v) for v in vectors]
    for _ in range(steps):
        i, j = rng.sample(range(rank), 2)
        q = rng.choice([-5, -3, -2, 2, 3, 5])
        for v in out:
            v[j] += q * v[i]
    return [tuple(v) for v in out]


def sheared_simplex_subfans(rng: random.Random):
    """Seeded subfans of a sheared unimodular simplex of rank 2-5: smooth and quasi-affine."""
    fans = []
    for n in (2, 3, 4, 5):
        for _ in range(4):
            basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            rays = random_shear(rng, basis, n, rng.randint(1, 2 * n))
            facets = list(combinations(rays, n - 1)) + [tuple(rays)]
            cones = rng.sample(facets, rng.randint(2, len(facets)))
            fans.append(Fan.from_cones([Cone.from_rays(c, n) for c in cones], n))
    return fans


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
