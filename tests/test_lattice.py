from fractions import Fraction

import pytest

from torikit.errors import DimensionError, IntegrityError, PreconditionError
from torikit.lattice import (
    add,
    adjugate,
    determinant,
    hermite_coordinates,
    hermite_normal_form,
    matrix_multiply,
    matrix_rank,
    pairing,
    primitive,
    saturated_span,
    smith_normal_form,
)

from _oracles import box_points, invert_unimodular, solve_rational


def test_pairing_examples():
    assert pairing((1, 0), (0, 1)) == 0
    assert pairing((2, 3), (1, 1)) == 5
    assert pairing((4, 1), (1, 0)) == 4


def test_pairing_rank_mismatch():
    with pytest.raises(DimensionError):
        pairing((1, 0), (1, 0, 0))


def test_pairing_bilinear(rng):
    for _ in range(50):
        n = rng.randint(1, 4)
        u = tuple(rng.randint(-9, 9) for _ in range(n))
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        w = tuple(rng.randint(-9, 9) for _ in range(n))
        assert pairing(add(u, v), w) == pairing(u, w) + pairing(v, w)
        assert pairing(u, add(v, w)) == pairing(u, v) + pairing(u, w)


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3,)) == (-1,)


def test_smith_identity():
    snf = smith_normal_form([[1, 0], [0, 1]])
    assert snf.diagonal == (1, 1)
    assert snf.rank == 2


def test_smith_divisibility_example():
    # 2 and 3 are coprime, so the invariant factors are 1 and 6
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.diagonal == (1, 6)


def test_smith_zero_matrix():
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal == (0, 0)
    assert snf.rank == 0


def _diag_matrix(diagonal, rows, cols):
    return tuple(
        tuple(diagonal[i] if i == j and i < len(diagonal) else 0 for j in range(cols))
        for i in range(rows)
    )


def test_smith_random_properties(rng):
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(A)
        assert matrix_multiply(matrix_multiply(snf.left, A), snf.right) == _diag_matrix(
            snf.diagonal, m, n
        )
        assert determinant(snf.left) in (1, -1)
        assert determinant(snf.right) in (1, -1)
        assert matrix_multiply(snf.right, snf.right_inverse) == _diag_matrix((1,) * n, n, n)
        assert snf.right_inverse == invert_unimodular(snf.right)
        nonzero = [d for d in snf.diagonal if d]
        assert len(nonzero) == snf.rank
        assert all(d >= 0 for d in snf.diagonal)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_saturated_span_examples():
    assert saturated_span([(2, 0)]) == ((1, 0),)
    assert saturated_span([]) == ()
    assert saturated_span([(1, 0), (0, 1)]) == ((1, 0), (0, 1))


def test_saturated_span_matches_the_smith_oracle(rng):
    # the full-rank shortcut returns the identity without a Smith form;
    # the oracle is the Hermite form of the first r rows of the inverse
    # Smith transform, r the Smith rank
    def oracle(vectors):
        snf = smith_normal_form(vectors)
        return hermite_normal_form(snf.right_inverse[: snf.rank])

    pinned = [
        [(2, 0), (0, 3)],
        [(1, 5), (2, 7)],
        [(3, 1, 4), (1, 5, 9), (2, 6, 5)],
        [(1, 1, 0), (0, 2, 0), (0, 0, 1), (1, 3, 1)],
        [(2, 4), (1, 2)],
        [(1, 2, 3), (2, 4, 6), (0, 0, 0)],
    ]
    for vectors in pinned:
        assert saturated_span(vectors) == oracle(vectors), vectors
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        r = rng.randint(1, n)
        base = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(r)]
        if rng.random() < 0.5:
            # full rank or not, with index: the base rows as they are
            vectors = base
        else:
            # up to n + 1 integer combinations of the base rows, rank at most r
            vectors = []
            for _ in range(rng.randint(1, n + 1)):
                coefficients = [rng.randint(-2, 2) for _ in base]
                vectors.append(tuple(sum(c * b[j] for c, b in zip(coefficients, base))
                                     for j in range(n)))
        rank = matrix_rank(vectors)
        if rank == 0:
            continue
        assert saturated_span(vectors) == oracle(vectors), vectors
        full = rank == n
        seen.add((rank, full, full and len(vectors) == n and abs(determinant(vectors)) > 1))
    assert {rank for rank, _, _ in seen} == {1, 2, 3, 4, 5}
    assert (4, True, True) in seen and (3, False, False) in seen


def test_saturated_span_is_saturated(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        basis = saturated_span(vectors)
        if not basis:
            assert all(not any(v) for v in vectors)
            continue
        for p in box_points(n, 4):
            span_coords = solve_rational(basis, p)
            if span_coords is None:
                continue  # not in the rational span
            # every rational-span lattice point must be an integer combination
            assert all(c.denominator == 1 for c in span_coords), (vectors, p)


def test_saturated_span_contains_input(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        basis = saturated_span(vectors)
        for v in vectors:
            if not any(v):
                continue
            coords = solve_rational(basis, v)
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)


def test_quotient_rank():
    # the quotient of a rank-n lattice by an independent sublattice has rank n - rank
    assert 3 - matrix_rank([(1, 0, 0)]) == 2
    assert 2 - matrix_rank([(1, 0), (0, 1)]) == 0
    assert 2 - matrix_rank([]) == 2


def test_hermite_normal_form_canonical():
    # the same lattice from two different bases gives the same form
    a = hermite_normal_form([(2, 1, 0), (0, 3, 1)])
    b = hermite_normal_form([(2, 4, 1), (2, 1, 0)])
    assert a == b
    for row in a:
        p = next(i for i, x in enumerate(row) if x)
        assert row[p] > 0


def test_invert_unimodular():
    M = ((1, 2), (0, 1))
    inv = invert_unimodular(M)
    assert matrix_multiply(M, inv) == ((1, 0), (0, 1))


def test_matrix_rank_and_determinant():
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([]) == 0
    assert determinant([(2, -1), (1, -1)]) == -1
    assert determinant([]) == 1
    assert determinant([(1, 2), (2, 4)]) == 0


def test_solve_rational():
    sol = solve_rational([(2, 0), (0, 3)], (4, 3))
    assert sol == (Fraction(2), Fraction(1))
    assert solve_rational([(1, 0)], (0, 1)) is None


def test_hermite_coordinates_match_the_rational_solve(rng):
    # Hermite bases of saturated and of non-saturated lattices; a point
    # off the rational span or off the lattice raises
    off_span = off_lattice = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, n))]
        for basis in (saturated_span(vectors), hermite_normal_form(vectors)):
            for p in box_points(n, 2):
                expected = solve_rational(basis, p)
                if expected is None or any(c.denominator != 1 for c in expected):
                    off_span += expected is None
                    off_lattice += expected is not None
                    with pytest.raises(IntegrityError):
                        hermite_coordinates(basis, p)
                else:
                    assert hermite_coordinates(basis, p) == tuple(map(int, expected))
    assert off_span and off_lattice
    assert hermite_coordinates((), (0, 0)) == ()
    assert hermite_coordinates(((2, 1), (0, 3)), (4, 5)) == (2, 1)
    with pytest.raises(IntegrityError):
        hermite_coordinates(((2, 1), (0, 3)), (4, 4))


def test_adjugate_random(rng):
    assert adjugate(()) == (1, ())
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        A = [tuple(rng.choice([0, 0, 1, -1, 2, -3, 7]) for _ in range(n)) for _ in range(n)]
        d = determinant(A)
        if d == 0:
            singular += 1
            with pytest.raises(PreconditionError):
                adjugate(A)
            continue
        det, adj = adjugate(A)
        assert det == d
        scaled = tuple(tuple(d * int(i == j) for j in range(n)) for i in range(n))
        assert matrix_multiply(A, adj) == scaled
        assert matrix_multiply(adj, A) == scaled
    assert singular >= 20
