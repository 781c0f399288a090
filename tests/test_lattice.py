from fractions import Fraction

import pytest

import torikit.lattice as lattice_module
from torikit.errors import DimensionError, IntegrityError, PreconditionError
from torikit.lattice import (
    add,
    adjugate,
    content,
    determinant,
    hermite_coordinates,
    hermite_normal_form,
    matrix_multiply,
    matrix_rank,
    pairing,
    primitive,
    saturated_span,
    smith_normal_form,
    sub,
    vector,
)

from _oracles import (
    adjugate_back_substitution,
    adjugate_gauss_jordan,
    box_points,
    determinant_bareiss,
    hermite_normal_form_by_insertion,
    invert_unimodular,
    matrix_rank_without_division,
    solve_rational,
)


def test_pairing_examples():
    assert pairing((1, 0), (0, 1)) == 0
    assert pairing((2, 3), (1, 1)) == 5
    assert pairing((4, 1), (1, 0)) == 4


def test_pairing_rank_mismatch():
    with pytest.raises(DimensionError):
        pairing((1, 0), (1, 0, 0))


def test_add_and_sub_refuse_a_rank_mismatch():
    # zip would stop at the shorter vector and drop the rest of the longer one
    for u, v in (((1, 0), (1,)), ((1,), (1, 0)), ((), (0,))):
        for function in (add, sub):
            with pytest.raises(DimensionError, match=f"rank mismatch: {len(u)} vs {len(v)}"):
                function(u, v)
    assert (add((1, -2), (3, 4)), sub((1, -2), (3, 4)), add((), ())) == ((4, 2), (-2, -6), ())


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
    assert (content(()), content((0, 0)), content((-4, 6, 0)), content((-7,))) == (0, 0, 2, 7)


def test_vector_takes_integers_as_they_are():
    assert vector((1, True, -3)) == (1, 1, -3)
    assert vector(x for x in (10**30, 0)) == (10**30, 0)
    # a non-integer entry is refused, not truncated
    for entries in ((0.5, -0.2), (1, 2.0), (Fraction(1, 2), 1), (Fraction(2), 1), ("2", 1)):
        with pytest.raises(TypeError):
            vector(entries)
    for entries in ([[0.5, 1]], [[1, "2"]]):
        with pytest.raises(TypeError):
            smith_normal_form(entries)
        with pytest.raises(TypeError):
            hermite_normal_form(entries)


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


def test_saturated_span_matches_the_smith_oracle(rng, monkeypatch):
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
        # one nonzero vector, read off as its primitive vector with a
        # positive first nonzero entry: a negative leading entry, zeros
        # before the pivot, and a zero row beside it
        [(-2, 4, 6)],
        [(0, 0, -3, 6)],
        [(0, 5, 0), (0, 0, 0)],
        [(-7,)],
    ]
    for vectors in pinned:
        assert saturated_span(vectors) == oracle(vectors), vectors
    with monkeypatch.context() as m:
        m.setattr(lattice_module, "smith_normal_form", None)
        for vectors in pinned[-4:]:
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


def test_hermite_normal_form_matches_the_insertion_oracle(rng):
    # 0-6 rows of width 0-6, entries in [-6, 6] or, for a tenth of the
    # matrices, up to 10**20; a zero row, the sum of two rows or a tripled
    # row is appended to some, so m > n and dependent rows both occur
    seen = set()
    for _ in range(2500):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        bound = 10**20 if rng.random() < 0.1 else 6
        rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)]
        kind = rng.choice(["plain", "zero", "sum", "tripled"])
        if kind == "zero" or (kind != "plain" and not rows):
            rows.append((0,) * n)
        elif kind == "sum":
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(tuple(x + y for x, y in zip(a, b)))
        elif kind == "tripled":
            rows.append(tuple(3 * x for x in rng.choice(rows)))
        rng.shuffle(rows)
        expected = hermite_normal_form_by_insertion(rows)
        assert hermite_normal_form(rows) == expected, rows
        # the Smith oracle of test_saturated_span_matches_the_smith_oracle
        snf = smith_normal_form(rows)
        assert saturated_span(rows) == hermite_normal_form_by_insertion(
            snf.right_inverse[: snf.rank]), rows
        for i, row in enumerate(expected):
            p = next(j for j, x in enumerate(row) if x)
            assert row[p] > 0 and all(0 <= other[p] < row[p] for other in expected[:i])
        seen.add("empty" if not rows else "zero width" if not n else
                 "tall" if len(rows) > n else "wide" if len(rows) < n else "square")
        if len(expected) < len(rows) and n:
            seen.add("dependent")
        if bound > 6:
            seen.add("huge")
    assert seen == {"empty", "zero width", "tall", "wide", "square", "dependent", "huge"}


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
    # a vector of another length than the basis rows is refused, not
    # truncated or read past its end
    for basis, v in ((((1, 0),), (1, 0, 5)), (((0, 1),), (0,)), (((2, 1), (0, 3)), ())):
        with pytest.raises(DimensionError):
            hermite_coordinates(basis, v)
    # a zero row has no pivot, so it is no Hermite basis row
    for basis in (((0, 0),), ((1, 0), (0, 0))):
        with pytest.raises(PreconditionError, match=f"basis row {len(basis) - 1} is zero"):
            hermite_coordinates(basis, (0, 0))


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


def _sparse_unit_row(rng, n):
    """A row with one to three entries of +-1 and zeros elsewhere, like the
    rays of a smooth fan: its pivots are units and most entries are 0."""
    row = [0] * n
    for j in rng.sample(range(n), rng.randint(1, min(n, 3))):
        row[j] = rng.choice((1, -1))
    return tuple(row)


def test_elimination_core_matches_the_oracles(rng):
    # square and rectangular matrices of 0-6 rows with zero rows and rows
    # that combine earlier ones, entries up to 10**20; a bound of 0 makes
    # the rows sparse with unit entries, where the core skips rows
    seen = set()
    for _ in range(3000):
        m = rng.randint(0, 6)
        n = m if rng.random() < 0.6 else rng.randint(1, 6)
        bound = rng.choice([0, 1, 3, 10**6, 10**20])
        rows = []
        for i in range(m):
            kind = rng.random()
            if kind < 0.1:
                rows.append((0,) * n)
            elif kind < 0.3 and i:
                a, b = rng.choice(rows), rng.choice(rows)
                p, q = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append(tuple(p * x + q * y for x, y in zip(a, b)))
            elif not bound:
                rows.append(_sparse_unit_row(rng, n))
            else:
                rows.append(tuple(rng.randint(-bound, bound) for _ in range(n)))
        rank = matrix_rank(rows)
        assert rank == matrix_rank_without_division(rows), rows
        if m and m != n:
            seen.add("rectangular")
            for f in (determinant, adjugate, determinant_bareiss, adjugate_gauss_jordan,
                      adjugate_back_substitution):
                with pytest.raises(DimensionError):
                    f(rows)
            continue
        d = determinant(rows)
        assert d == determinant_bareiss(rows), rows
        assert (d != 0) == (rank == m)
        if d:
            expected = adjugate_gauss_jordan(rows)
            assert adjugate(rows) == expected == adjugate_back_substitution(rows), rows
            seen.add(("nonsingular", m, bound))
        else:
            seen.add("singular")
            for f in (adjugate, adjugate_gauss_jordan, adjugate_back_substitution):
                with pytest.raises(PreconditionError):
                    f(rows)
        if any(not any(r) for r in rows):
            seen.add("zero row")
        elif rank < m:
            seen.add("dependent rows")
    assert {"rectangular", "singular", "zero row", "dependent rows"} <= seen
    assert all(("nonsingular", m, b) in seen for m in range(1, 7) for b in (0, 10**20))


def test_adjugate_matches_both_oracles(rng):
    # n = 0-7: sparse signed-unit rows, where the core skips rows whose
    # pivot-column entry is 0, dense rows, entries up to 10**20, and
    # singular matrices, which every side refuses and whose determinant
    # is 0, also where the cofactors take it (n = 2 and 3)
    kinds = {"sparse": lambda n: _sparse_unit_row(rng, n),
             "dense": lambda n: tuple(rng.randint(-9, 9) for _ in range(n)),
             "huge": lambda n: tuple(rng.randint(-10**20, 10**20) for _ in range(n))}
    seen = set()
    for n in range(8):
        for kind, row in kinds.items():
            for _ in range(40):
                rows = [row(n) for _ in range(n)]
                if n >= 2 and rng.random() < 0.25:
                    # row i repeats row j or is the sum of rows j and k
                    i, j, k = rng.sample(range(n), 3) if n >= 3 else (0, 1, 1)
                    rows[i] = add(rows[j], rows[k]) if j != k else rows[j]
                try:
                    expected = adjugate_gauss_jordan(rows)
                except PreconditionError:
                    seen.add(("singular", kind))
                    seen.add(("singular", n))
                    assert determinant(rows) == 0 == determinant_bareiss(rows), rows
                    for f in (adjugate, adjugate_back_substitution):
                        with pytest.raises(PreconditionError):
                            f(rows)
                    continue
                assert adjugate(rows) == expected == adjugate_back_substitution(rows), rows
                assert expected[0] == determinant(rows)
                seen.add((kind, n))
    assert all((kind, n) in seen for kind in kinds for n in range(8))
    assert all(("singular", kind) in seen for kind in kinds)
    assert ("singular", 2) in seen and ("singular", 3) in seen


def test_elimination_errors():
    # the empty matrix is pinned in test_matrix_rank_and_determinant and
    # test_adjugate_random
    # ragged rows of 2 and 3 are refused before the cofactors unpack them
    for rows in ([(1, 2)], [(1, 2), (3,)], [(1,), (2,)], [(1, 2), (3, 4, 5)],
                 [(1, 2, 3), (4, 5), (6, 7, 8)], [(1, 2, 3), (4, 5, 6), (7, 8)],
                 [(1, 2), (3, 4), (5, 6)]):
        with pytest.raises(DimensionError):
            determinant(rows)
        with pytest.raises(DimensionError):
            adjugate(rows)
    # ragged rows are refused, not truncated or read past their end; a
    # short zero row is refused too, before saturated_span drops zero rows
    for rows in ([(1, 0), (1,)], [(0, 5), (3,)], [(), (1,)], [(1,), (0, 1)], [(0,), (1, 0)]):
        for function in (hermite_normal_form, smith_normal_form, matrix_rank, saturated_span):
            with pytest.raises(DimensionError):
                function(rows)
        with pytest.raises(DimensionError):
            matrix_multiply([(1,) * len(rows)], rows)
    with pytest.raises(PreconditionError):
        adjugate([(1, 2), (2, 4)])
    with pytest.raises(PreconditionError):
        adjugate([(0,)])


def test_matrix_multiply_matches_the_triple_loop(rng):
    def naive(A, B):
        cols = len(B[0]) if B else 0
        return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(cols))
                     for i in range(len(A)))

    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (2, 0, 0), (0, 0, 4)]
    shapes += [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(300)]
    for rows, inner, cols in shapes:
        A = tuple(tuple(rng.randint(-9, 9) for _ in range(inner)) for _ in range(rows))
        B = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(inner))
        assert matrix_multiply(A, B) == naive(A, B), (A, B)
        assert matrix_multiply(list(map(list, A)), list(map(list, B))) == naive(A, B)
    # a ragged right factor, and a row of the left one of the wrong length
    with pytest.raises(DimensionError, match="ragged matrix"):
        matrix_multiply([(1, 1)], [(1,), (3, 4)])
    for A, B in (([(1, 2), (3,)], [(1, 0), (0, 1)]), ([(1, 2)], [(1, 0)]),
                 ([(1,)], []), ([()], [(1, 2)])):
        with pytest.raises(DimensionError, match="matrix shapes do not match"):
            matrix_multiply(A, B)
