"""Exact integer linear algebra on lattices and their duals.

Lattice elements are plain tuples of Python ints and matrices are tuples
of row tuples, so every computation is arbitrary precision.  No floating
point is used anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .errors import DimensionError, IntegrityError, PreconditionError

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def vector(entries) -> Vec:
    """The entries as ints: a float, Fraction or str raises TypeError, never truncated."""
    return tuple(map(operator.index, entries))


def pairing(u: Vec, v: Vec) -> int:
    """Dual pairing <u, v> = sum(u_i * v_i) between a lattice and its dual."""
    if len(u) != len(v):
        raise DimensionError(f"rank mismatch: {len(u)} vs {len(v)}")
    return sum(map(operator.mul, u, v))


def add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple(map(operator.add, u, v))


def sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple(map(operator.sub, u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def scale(k: int, u: Vec) -> Vec:
    return tuple(k * a for a in u)


def content(u: Vec) -> int:
    return gcd(*u)


def primitive(u: Vec) -> Vec:
    """Divide out the gcd of the entries, keeping the direction."""
    g = content(u)
    if g <= 1:
        return tuple(u)
    return tuple(a // g for a in u)


def is_primitive(u: Vec) -> bool:
    return content(u) == 1


def _width(rows) -> int:
    """The common length of the rows (0 when there are none); ragged rows raise DimensionError."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise DimensionError("ragged matrix")
    return widths.pop() if widths else 0


@dataclass(frozen=True)
class SmithDecomposition:
    """Diagonalization left * A * right = diag(diagonal) with unimodular factors.

    ``right_inverse`` is the integer inverse of ``right``.
    """

    diagonal: tuple[int, ...]
    rank: int
    left: Mat
    right: Mat
    right_inverse: Mat


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix (rows of equal length).

    Pivots are chosen with minimal absolute value, ties broken in
    row-major order, so the factors are deterministic.  Every column
    operation on ``right`` is undone by the inverse row operation on
    ``right_inverse``, so the inverse stays integral without a solve.
    """
    D = [list(map(operator.index, row)) for row in matrix]
    m = len(D)
    n = _width(D)
    L = [[int(i == j) for j in range(m)] for i in range(m)]
    R = [[int(i == j) for j in range(n)] for i in range(n)]
    Rinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        if a != b:
            D[a], D[b] = D[b], D[a]
            L[a], L[b] = L[b], L[a]

    def swap_cols(a, b):
        if a != b:
            for row in D:
                row[a], row[b] = row[b], row[a]
            for row in R:
                row[a], row[b] = row[b], row[a]
            Rinv[a], Rinv[b] = Rinv[b], Rinv[a]

    def add_row(dst, src, q):
        if q:
            D[dst] = [x + q * y for x, y in zip(D[dst], D[src])]
            L[dst] = [x + q * y for x, y in zip(L[dst], L[src])]

    def add_col(dst, src, q):
        if q:
            for row in D:
                row[dst] += q * row[src]
            for row in R:
                row[dst] += q * row[src]
            Rinv[src] = [x - q * y for x, y in zip(Rinv[src], Rinv[dst])]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Alternate clearing column t and row t; the pivot magnitude
            # strictly drops whenever a pass leaves a remainder, so this
            # terminates.
            while any(D[i][t] for i in range(t + 1, m)):
                i0 = min((i for i in range(t, m) if D[i][t]), key=lambda i: (abs(D[i][t]), i))
                swap_rows(t, i0)
                for i in range(t + 1, m):
                    if D[i][t]:
                        add_row(i, t, -(D[i][t] // D[t][t]))
            while any(D[t][j] for j in range(t + 1, n)):
                j0 = min((j for j in range(t, n) if D[t][j]), key=lambda j: (abs(D[t][j]), j))
                swap_cols(t, j0)
                for j in range(t + 1, n):
                    if D[t][j]:
                        add_col(j, t, -(D[t][j] // D[t][t]))
            if any(D[i][t] for i in range(t + 1, m)):
                continue
            p = D[t][t]
            bad = None
            for i in range(t + 1, m):
                if any(D[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            L[t] = [-x for x in L[t]]
        t += 1

    diagonal = tuple(D[i][i] for i in range(min(m, n)))
    rank = sum(1 for d in diagonal if d)
    return SmithDecomposition(
        diagonal=diagonal,
        rank=rank,
        left=tuple(tuple(row) for row in L),
        right=tuple(tuple(row) for row in R),
        right_inverse=tuple(tuple(row) for row in Rinv),
    )


def matrix_multiply(A, B) -> Mat:
    _width(B)  # a ragged B raises
    if any(len(row) != len(B) for row in A):
        raise DimensionError("matrix shapes do not match")
    columns = tuple(zip(*B))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in columns) for row in A)


def _bareiss(rows, width, jordan=False) -> tuple[list[list[int]], list[int], int]:
    """Echelon rows, pivot columns (among the first ``width``) and row permutation sign.

    Fraction-free (Bareiss): a row below pivot p becomes (p * row - c * pivot row) / q,
    q the pivot before p, so every entry is a minor of the row-permuted input
    (Sylvester's identity), each division is exact and the last pivot of a nonsingular
    square matrix is its determinant up to sign.  A column is a pivot exactly when it
    is independent of the columns before it.  A row with c = 0 is skipped when p = q,
    since then (p * row - c * pivot row) / q = row.  ``jordan`` updates the rows above
    each pivot too, which for a nonsingular square block leaves it d * I, d its last
    pivot (Gauss-Jordan).
    """
    M = [list(row) for row in rows]
    m = len(M)
    pivots: list[int] = []
    sign = prev = 1
    for col in range(width):
        r = piv = len(pivots)
        if r == m:
            break
        while piv < m and not M[piv][col]:
            piv += 1
        if piv == m:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        top = M[r]
        p = top[col]
        for i in range(0 if jordan else r + 1, m):
            row = M[i]
            c = row[col]
            if (c or p != prev) and row is not top:
                M[i] = [(p * x - c * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return M, pivots, sign


def matrix_rank(rows) -> int:
    """Rank over the rationals: the number of pivots of :func:`_bareiss` (rows of equal length)."""
    return len(_bareiss(rows, _width(rows))[1])


def _cofactors(rows) -> tuple[int, Mat]:
    """det(A) and adj(A) of a 2 x 2, 3 x 3 or 4 x 4 matrix A, by cofactor expansion.

    adj(A)[i][j] is the cofactor of A[j][i], so A * adj(A) = det(A) * I.  For
    n = 3, det(A) expands along the first row and column j of adj(A) is the
    cross product of the other two rows, taken in cyclic order.  For n = 4,
    det(A) expands along the first two rows at once (Laplace): it is the sum
    over the 2-subsets S of the columns of the 2 x 2 minor of rows 0 and 1 on
    S times that of rows 2 and 3 on the other two columns, signed by the
    parity of S.  A cofactor deletes one row and one column; the 3 x 3 matrix
    left keeps one row of the deleted row's pair, and expands along it
    through the 2 x 2 minors of the other pair on the columns left, so the
    twelve minors give all sixteen cofactors.
    """
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c, ((d, -b), (-c, a))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        A, B, C = e * i - f * h, f * g - d * i, d * h - e * g
        return a * A + b * B + c * C, ((A, c * h - b * i, b * f - c * e),
                                       (B, a * i - c * g, c * d - a * f),
                                       (C, b * g - a * h, a * e - b * d))
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = rows
    # sJK and tJK: the minors of rows 0-1 and of rows 2-3 on columns J < K
    s01, s02, s03, s12, s13, s23 = (a * f - b * e, a * g - c * e, a * h - d * e,
                                    b * g - c * f, b * h - d * f, c * h - d * g)
    t01, t02, t03, t12, t13, t23 = (i * n - j * m, i * o - k * m, i * p - l * m,
                                    j * o - k * n, j * p - l * n, k * p - l * o)
    det = s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * t01
    return det, ((f * t23 - g * t13 + h * t12, c * t13 - b * t23 - d * t12,
                  n * s23 - o * s13 + p * s12, k * s13 - j * s23 - l * s12),
                 (g * t03 - e * t23 - h * t02, a * t23 - c * t03 + d * t02,
                  o * s03 - m * s23 - p * s02, i * s23 - k * s03 + l * s02),
                 (e * t13 - f * t03 + h * t01, b * t03 - a * t13 - d * t01,
                  m * s13 - n * s03 + p * s01, j * s03 - i * s13 - l * s01),
                 (f * t02 - e * t12 - g * t01, a * t12 - b * t02 + c * t01,
                  n * s02 - m * s12 - o * s01, i * s12 - j * s02 + k * s01))


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix.

    For n = 2, 3 and 4 it is the cofactor expansion of :func:`_cofactors`
    (for n = 4, Laplace's along the first two rows: the products of the
    2 x 2 minors of rows 0-1 and of rows 2-3 on complementary columns, with
    signs); for n < 2 and from n = 5 the signed last pivot of :func:`_bareiss`.
    """
    n = len(rows)
    if _width(rows) != n:
        raise DimensionError("matrix is not square")
    if 2 <= n <= 4:
        return _cofactors(rows)[0]
    M, pivots, sign = _bareiss(rows, n)
    if len(pivots) < n:
        return 0
    return sign * M[-1][-1] if n else 1


def adjugate(rows) -> tuple[int, Mat]:
    """Determinant and adjugate of a nonsingular square integer matrix.

    adj(A) is the transposed matrix of cofactors, so A * adj(A) = det(A) * I:
    column j of adj(A) pairs to zero with every row of A but row j.  For n = 2,
    3 and 4 the cofactors are written out (:func:`_cofactors`; for n = 4 through
    the 2 x 2 minors of rows 0-1 and of rows 2-3, whose signed products over
    complementary columns sum to det(A) by Laplace's expansion along two rows).
    For n < 2 and from n = 5, :func:`_bareiss` of [A | I], clearing above the
    pivots too, ends at [d * I | d * A^-1], d = det(PA) for the row permutation
    P: the row operations take PA to d * I, so they are d * (PA)^-1, and take P
    to d * A^-1.  Then adj(A) = sign(P) * d * A^-1.
    """
    n = len(rows)
    if _width(rows) != n:
        raise DimensionError("matrix is not square")
    if 2 <= n <= 4:
        d, adj = _cofactors(rows)
        if not d:
            raise PreconditionError("matrix is singular")
        return d, adj
    M, pivots, sign = _bareiss([[*row, *[0] * i, 1, *[0] * (n - i - 1)]
                                for i, row in enumerate(rows)], n, jordan=True)
    if len(pivots) < n:
        raise PreconditionError("matrix is singular")
    d = M[-1][n - 1] if n else 1
    if sign < 0:
        return -d, tuple(tuple(-x for x in row[n:]) for row in M)
    return d, tuple(tuple(row[n:]) for row in M)


def hermite_normal_form(matrix) -> Mat:
    """Canonical row-echelon basis of the lattice spanned by the rows (rows of equal length).

    Column by column, the rows with a nonzero entry there are reduced by the one of least
    absolute value until one is left (Euclid); it becomes the next pivot row, made
    positive, and the rows kept before it are reduced into [0, pivot) at its column.
    Positive pivots with reduced entries above them make the result unique for a given
    row lattice.
    """
    rows = [list(map(operator.index, row)) for row in matrix]
    n = _width(rows)
    basis: list[list[int]] = []
    for j in range(n):
        live = [row for row in rows if row[j]]
        rows = [row for row in rows if not row[j]]
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[j]))
            reduced = [[x - row[j] // p[j] * y for x, y in zip(row, p)]
                       for row in live if row is not p]
            rows += [row for row in reduced if not row[j]]
            live = [p, *(row for row in reduced if row[j])]
        if live:
            p = live[0] if live[0][j] > 0 else [-x for x in live[0]]
            for i, row in enumerate(basis):
                q = row[j] // p[j]
                if q:
                    basis[i] = [x - q * y for x, y in zip(row, p)]
            basis.append(p)
    return tuple(map(tuple, basis))


def hermite_coordinates(basis, v) -> Vec:
    """Integer coordinates x with sum_i x_i * basis[i] = v, for a basis in
    Hermite form (as from :func:`hermite_normal_form` or :func:`saturated_span`).

    The pivots of the rows lie in increasing columns and the rows after a
    pivot are zero there, so x_i is read off pivot i once the rows before
    it are subtracted.  Anything left of v at the end, a remainder of one
    of these divisions included, means that v is not in the lattice of
    the basis.  A v of another length than the rows raises DimensionError,
    and a zero row, which has no pivot, PreconditionError.
    """
    rest = list(v)
    if any(len(row) != len(rest) for row in basis):
        raise DimensionError(f"rank mismatch: basis rows vs a vector of length {len(rest)}")
    coords = []
    for i, row in enumerate(basis):
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            raise PreconditionError(f"basis row {i} is zero")
        q = rest[p] // row[p]
        if q:
            rest = [x - q * y for x, y in zip(rest, row)]
        coords.append(q)
    if any(rest):
        raise IntegrityError(f"{tuple(v)} is not in the lattice of the basis")
    return tuple(coords)


def saturated_span(vectors) -> Mat:
    """Basis (in Hermite form) of the saturation of the span of the input.

    The saturation is the smallest sublattice containing the input that
    has a torsion-free quotient; its rank equals the rational rank of
    the span.  The saturation of a full-rank sublattice is Z^n, whose
    Hermite basis is the identity, and that of one nonzero vector is the
    line through its primitive vector, whose Hermite basis is that vector
    with its first nonzero entry made positive; neither needs a Smith form.
    """
    vs = [vector(v) for v in vectors]
    n = _width(vs)
    vs = [v for v in vs if any(v)]
    if not vs:
        return ()
    if len(vs) == 1:
        p = primitive(vs[0])
        return (p if next(filter(None, p)) > 0 else neg(p),)
    if len(vs) >= n and matrix_rank(vs) == n:
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    snf = smith_normal_form(vs)
    return hermite_normal_form(snf.right_inverse[: snf.rank])
