"""Every golden invocation and demo with the drop-in oracles in place of the fast paths.

``DROP_IN`` maps a function of ``src/torikit`` to the oracle of
``tests/_oracles.py`` that it replaced, which takes the same arguments and
gives the same answer, or to a thin adapter below that calls the oracle
where the two differ in signature or result type.  The fixture
``drop_in_oracles`` puts every oracle in place at once, in every module of
``torikit`` that binds the function (a method is patched on its class), so
a bug where two fast paths meet shows as a byte of output that the oracles
do not give.  Every other function of ``tests/_oracles.py`` is on
``NOT_DROP_IN`` with the reason.
"""

import inspect
import json
import sys
import warnings

import pytest

import _oracles
import torikit
from torikit import cli, cone, derivations, fan, lattice, semigroup
from torikit.errors import DimensionError, PreconditionError
from torikit.fan import ClassGroup
from torikit.lattice import vector

from test_golden import GOLDEN_FILE, current_outputs


def _adapts(oracle):
    """Mark a thin adapter with the oracle of ``tests/_oracles.py`` that it calls."""
    def mark(adapter):
        adapter.oracle = oracle
        return adapter
    return mark


@_adapts(_oracles.cone_from_rays_dd)
def from_rays_by_dd(cls, generators, ambient_rank=None):
    """``Cone.from_rays`` by two double description runs, with its optional
    rank and its rank checks."""
    gens = [vector(g) for g in generators]
    if ambient_rank is None:
        if not gens:
            raise DimensionError("ambient rank required for an empty generator list")
        ambient_rank = len(gens[0])
    if any(len(g) != ambient_rank for g in gens):
        raise DimensionError("generators have mixed ranks")
    return _oracles.cone_from_rays_dd(gens, ambient_rank)


@_adapts(_oracles.class_group_smith)
def class_group_by_smith(fan):
    return ClassGroup(*_oracles.class_group_smith(fan))


@_adapts(_oracles.parallelepiped_points_smith)
def parallelepiped_points_by_smith(gens, normals):
    """The Smith odometer's points, each keyed by its pairings with the normals."""
    return {semigroup._values(normals, x): x for x in _oracles.parallelepiped_points_smith(gens)}


def _extremal(semigroup, ray):
    """The ray as a vector, refused as ``derivations`` refuses it when it is
    not an extremal ray of the cone dual to the semigroup."""
    rho = vector(ray)
    if rho not in semigroup.cone.dual().rays:
        raise PreconditionError(
            f"{rho} is not an extremal ray of the cone dual to the semigroup")
    return rho


@_adapts(_oracles.is_root_generators)
def is_root_by_generators(semigroup, ray, degree):
    return _oracles.is_root_generators(semigroup, _extremal(semigroup, ray), degree)


@_adapts(_oracles.enumerate_roots_box)
def enumerate_roots_by_box(semigroup, ray, radius):
    """Every box point tested, with the argument checks and warnings of
    ``enumerate_roots``."""
    if radius < 1:
        raise PreconditionError("radius must be at least 1")
    rho = _extremal(semigroup, ray)
    size = (2 * radius + 1) ** (semigroup.rank - 1)
    if size > derivations.MAX_SLICE_POINTS:
        warnings.warn(f"the search window has {size} points on the root hyperplane; "
                      "the walk will take long", RuntimeWarning, stacklevel=2)
    hits = _oracles.enumerate_roots_box(semigroup, rho, radius)
    if not hits:
        warnings.warn("no derivation degrees found in the search box; increase the radius",
                      RuntimeWarning, stacklevel=2)
    return hits


DROP_IN = {
    (cone, "Cone.from_rays"): from_rays_by_dd,
    (cone, "Cone.is_smooth"): _oracles.is_smooth_smith,
    (cone, "Cone.faces"): _oracles.faces_frontier,
    (cone, "Cone.is_face_of"): _oracles.is_face_of_facet_walk,
    (cone, "_incidence"): _oracles.incidence_by_pairings,
    (cone, "_dd"): _oracles.dd_recomputing_zero_sets,
    (semigroup, "_simplicial_cover"): _oracles.simplicial_cover_by_faces,
    (semigroup, "_parallelepiped_points"): parallelepiped_points_by_smith,
    (semigroup, "_irreducible_points"): _oracles.pointed_hilbert_basis_contains_sieve,
    (semigroup, "fan_coordinate_semigroup"): _oracles.fan_coordinate_semigroup_contains_sieve,
    (cli, "fan_from_document"): _oracles.fan_from_document_per_cone,
    (fan, "Fan.class_group"): class_group_by_smith,
    (fan, "_pseudo_manifold"): _oracles.pseudo_manifold_by_contains,
    (lattice, "hermite_normal_form"): _oracles.hermite_normal_form_by_insertion,
    (lattice, "determinant"): _oracles.determinant_bareiss,
    (lattice, "matrix_rank"): _oracles.matrix_rank_without_division,
    (lattice, "adjugate"): _oracles.adjugate_back_substitution,
    (derivations, "HomogeneousDerivation.nilpotency_order"):
        _oracles.nilpotency_order_by_application,
    # the box walks add about 0.6 s to the golden run
    (derivations, "is_root"): is_root_by_generators,
    (derivations, "enumerate_roots"): enumerate_roots_by_box,
}

BRUTE_FORCE = "a brute-force reference"
INLINE = "a reference for code inside build_ga_actions, which has no function to swap"
NOT_DROP_IN = {
    "solve_rational": "the exact rational solve that the brute-force references share",
    "box_points": "the box that the brute-force point and root searches walk",
    "_hnf_insert": "a helper of hermite_normal_form_by_insertion",
    "_xgcd": "a helper of hermite_normal_form_by_insertion",
    "local_cone": "a helper of pointed_hilbert_basis_contains_sieve",
    "pointed_quotient": "a helper of pointed_hilbert_basis_contains_sieve",
    "adjugate_gauss_jordan": "a second reference for adjugate, whose slot holds the other",
    "cone_contains_bruteforce": BRUTE_FORCE + ": Caratheodory over generator subsets",
    "invert_unimodular": BRUTE_FORCE + ": Gauss-Jordan over the rationals",
    "parallelepiped_points_box": BRUTE_FORCE + ": a box walk with rational solves",
    "fan_closure_all_face_pairs": BRUTE_FORCE + ": every face pair of the closure",
    "maximal_cones_all_pairs": BRUTE_FORCE + ": maximality from every pair",
    "verdict_two_smoothness_passes": BRUTE_FORCE + ": the verdict's fields as a tuple",
    "is_smooth_all_cones": BRUTE_FORCE + ": smoothness over the whole face list",
    "euler_characteristic_all_cones": BRUTE_FORCE + ": counted over the whole face list",
    "is_complete_all_cones": BRUTE_FORCE + ": completeness over the whole face list",
    "semigroup_generates": BRUTE_FORCE + ": a graded search for a decomposition",
    "semigroup_generates_without": BRUTE_FORCE + ": the same search without one generator",
    "naive_derivative": BRUTE_FORCE + ": the derivation formula term by term",
    "enumerate_roots_slice": BRUTE_FORCE + ": every point of the root hyperplane's slice",
    "fixes_boundary_by_projection": BRUTE_FORCE + ": a check build_ga_actions no longer runs",
    "independent_wall_generators_greedy": INLINE,
    "wall_generators_hilbert_basis": INLINE,
}


def _bindings():
    """(owner, attribute, fast path, oracle) for every binding that ``DROP_IN`` patches."""
    modules = [m for name, m in sys.modules.items()
               if name == "torikit" or name.startswith("torikit.")]
    out = []
    for (module, path), oracle in DROP_IN.items():
        *owner, name = path.split(".")
        if owner:
            cls = getattr(module, owner[0])
            out.append((cls, name, vars(cls)[name], oracle))
            continue
        real = getattr(module, name)
        out += [(m, attr, real, oracle) for m in modules
                for attr, value in vars(m).items() if value is real]
    return out


@pytest.fixture
def drop_in_oracles(monkeypatch):
    """Every fast path of ``DROP_IN`` replaced by its oracle, wherever it is bound."""
    bindings = _bindings()
    for owner, attr, real, oracle in bindings:
        monkeypatch.setattr(owner, attr,
                            classmethod(oracle) if isinstance(real, classmethod) else oracle)
    yield bindings


def test_the_golden_outputs_come_out_of_the_oracles(tmp_path, drop_in_oracles, monkeypatch):
    # a name is patched in every module that imports it, the package too
    assert torikit.determinant is _oracles.determinant_bareiss
    assert fan._incidence is semigroup._incidence is _oracles.incidence_by_pairings
    assert fan.fan_coordinate_semigroup is cli.fan_coordinate_semigroup is \
        _oracles.fan_coordinate_semigroup_contains_sieve
    assert cli.fan_from_document is _oracles.fan_from_document_per_cone
    golden = json.loads(GOLDEN_FILE.read_text())
    current = current_outputs(tmp_path)
    for group in golden:
        for key, expected in golden[group].items():
            assert current[group][key] == expected, key
    # the oracle of _irreducible_points walks its own cover and points, so a
    # second run puts the fast sieve back to reach the oracles of
    # _simplicial_cover and _parallelepiped_points
    sieve = next(real for _, attr, real, _ in drop_in_oracles if attr == "_irreducible_points")
    monkeypatch.setattr(semigroup, "_irreducible_points", sieve)
    current = current_outputs(tmp_path)
    for group in golden:
        for key, expected in golden[group].items():
            assert current[group][key] == expected, key


def test_every_oracle_is_a_drop_in_or_has_a_reason():
    defined = {name for name, f in inspect.getmembers(_oracles, inspect.isfunction)
               if f.__module__ == _oracles.__name__}
    swapped = {getattr(oracle, "oracle", oracle).__name__ for oracle in DROP_IN.values()}
    assert not swapped & NOT_DROP_IN.keys()
    assert defined == swapped | NOT_DROP_IN.keys()
    # the same parameters, but for the name of the first, which is self in a method
    for _, _, real, oracle in _bindings():
        real = getattr(real, "__func__", real)  # the function of a classmethod
        assert [*inspect.signature(real).parameters][1:] == \
            [*inspect.signature(oracle).parameters][1:], oracle.__name__
