"""The source paper's hypotheses, and the agreement of the commands, on valid fans.

The fans are built here without torikit: subfans of sheared unimodular
bases of rank 2-5 (some with a torus factor), (P^1)^n for n <= 4 with and
without one maximal cone, the cone over the k x k grid for k <= 3, and every
golden document.  Every check reads the output of ``cli.main``.

(a) The paper's smooth case in toric form.  On a smooth X_Sigma, Pic = Cl,
    finite exactly when ``class_rank`` is 0; chi != 0 means some cone is
    full-dimensional, and its rays are a lattice basis, so Cl is free and
    finite only with n rays.  So "smooth, Pic finite, chi != 0" holds exactly
    when the fan is all faces of one unimodular full-dimensional cone, that
    is X = A^n.
(b) The toric part of the torus-centralizer claim: on a fan whose support
    cone sigma is pointed, a root e pairs to -1 with its ray, so it lies in
    no pM, and its root subgroup commutes with no p-torsion of the torus.
(c) ``ga-actions`` runs exactly on the fans ``analyze`` passes with no torus
    factor, and then agrees with ``hilbert-basis`` and ``roots``.
"""

import contextlib
import io
import json
import random
import warnings
from fractions import Fraction
from itertools import combinations, product

from conftest import DATA_DIR, random_shear
from test_golden import EXTRA_DOCUMENTS

from torikit.cli import main

RADII = (1, 2)


def _document(rank, cones):
    """The fan document of cones given as lists of ray vectors, listing only used rays."""
    rays = sorted({tuple(r) for c in cones for r in c})
    index = {r: i for i, r in enumerate(rays)}
    return json.dumps({"rank": rank, "rays": [list(r) for r in rays],
                       "cones": [sorted(index[tuple(r)] for r in c) for c in cones]})


def _sheared_subfans(rng):
    """Subsets of the faces of a sheared unimodular simplex; a basis that
    omits a vector gives a torus factor."""
    out = []
    for n in (2, 3, 4, 5):
        for _ in range(20):
            basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            rays = random_shear(rng, basis, n, rng.randint(0, 2 * n))
            used = rays if rng.random() < 0.7 else rng.sample(rays, rng.randint(1, n - 1))
            faces = [c for k in range(1, len(used) + 1) for c in combinations(used, k)]
            out.append(_document(n, rng.sample(faces, rng.randint(1, min(4, len(faces))))))
    return out


def _p1_powers():
    out = []
    for n in range(1, 5):
        cones = [[tuple(s * int(i == j) for j in range(n)) for i, s in enumerate(signs)]
                 for signs in product((1, -1), repeat=n)]
        out += [_document(n, cones), _document(n, cones[1:])]
    return out


def _grids():
    out = []
    for k in range(1, 4):
        cones = []
        for i, j in product(range(k), repeat=2):
            a, b, c, d = (i, j, 1), (i + 1, j, 1), (i + 1, j + 1, 1), (i, j + 1, 1)
            cones += [[a, b, c], [a, c, d]]
        out.append(_document(3, cones))
    return out


def _fan_documents():
    golden = [path.read_text() for path in sorted(DATA_DIR.glob("*.json"))] + EXTRA_DOCUMENTS
    # the one root nearest the origin of a rank-2 and a rank-3 fan lies beyond
    # the widest window of ga-actions, which then names the radius that reaches it
    far = ['{"rank":2,"rays":[[1,0],[100,1]],"cones":[[0,1]]}',
           '{"rank":3,"rays":[[1,0,0],[100,1,0],[100,0,1]],"cones":[[0,1],[0,2]]}']
    return golden + far + _p1_powers() + _grids() + _sheared_subfans(random.Random(1707))


def _run(tmp_path, text, *argv):
    path = tmp_path / "fan.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty roots window warns
        code = main([argv[0], str(path), *argv[1:], "--json"])
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


def _rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            q = rows[r][col] / rows[rank][col]
            rows[r] = [x - q * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _pairing(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def test_the_commands_agree_with_the_paper_on_generated_fans(tmp_path):
    documents = _fan_documents()
    tally = {"A^n": 0, "pointed": 0, "ga-actions": 0, "hint": 0, "roots": 0}
    for text in documents:
        rank = json.loads(text)["rank"]
        code, analysis, _ = _run(tmp_path, text, "analyze")
        assert code == 0, text
        smooth, chi = analysis["smooth"], analysis["euler_characteristic"]

        # (a) smooth, Pic finite and chi != 0 exactly when X is A^n
        hypothesis = smooth and analysis["class_rank"] == 0 and chi != 0
        affine_space = (smooth and analysis["edge_count"] == rank and chi == 1
                        and analysis["class_torsion"] == [])
        assert hypothesis == affine_space, text
        tally["A^n"] += affine_space

        code, hilbert, _ = _run(tmp_path, text, "hilbert-basis")
        assert code == 0, text
        pointed = _rank(hilbert["generators"] + hilbert["units"]) == rank
        tally["pointed"] += pointed

        # (c) ga-actions runs exactly where the verdict passes with no torus factor
        has_rays = json.loads(text)["rays"] != []
        runs = analysis["quasi_affine"] and analysis["torus_factor_rank"] == 0 and has_rays
        for r in RADII:
            code, family, err = _run(tmp_path, text, "ga-actions", "--radius", str(r))
            hinted = code == 3 and "(rerun with --radius " in err
            assert (code == 0 or hinted) == runs and code in (0, 3), (text, r, err)
            tally["hint"] += hinted
            code, found, _ = _run(tmp_path, text, "roots", "--radius", str(r))
            degrees = []
            if family is not None:
                tally["ga-actions"] += 1
                assert hilbert["generators"] == analysis["ambient_generators"], text
                assert hilbert["units"] == analysis["ambient_units"] == [], text
                assert code == 0 and found["ray"] == family["chosen_ray"], text
                if found["roots"]:
                    assert found["roots"][0] == family["root_degree"], (text, r)
                degrees = [family["root_degree"], *(d["degree"] for d in family["derivations"])]
                assert all(_pairing(e, family["chosen_ray"]) == -1 for e in degrees), text
                degrees += family["characters"]
            # (b) every root pairs to -1 with its ray, so no root lies in pM
            if pointed and has_rays:
                assert code == 0, text
                tally["roots"] += bool(found["roots"])
                assert all(_pairing(e, found["ray"]) == -1 for e in found["roots"]), text
                for e in found["roots"] + degrees:
                    assert not any(all(x % p == 0 for x in e) for p in (2, 3, 5)), (text, e)
    assert len(documents) >= 100 and tally["pointed"] >= 90 and tally["A^n"] >= 20
    assert tally["ga-actions"] >= 70 and tally["roots"] >= 150 and tally["hint"] == 4
