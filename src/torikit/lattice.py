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
    return tuple(int(x) for x in entries)


def pairing(u: Vec, v: Vec) -> int:
    """Dual pairing <u, v> = sum(u_i * v_i) between a lattice and its dual."""
    if len(u) != len(v):
        raise DimensionError(f"rank mismatch: {len(u)} vs {len(v)}")
    return sum(map(operator.mul, u, v))


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def scale(k: int, u: Vec) -> Vec:
    return tuple(k * a for a in u)


def content(u: Vec) -> int:
    g = 0
    for a in u:
        g = gcd(g, a)
    return g


def primitive(u: Vec) -> Vec:
    """Divide out the gcd of the entries, keeping the direction."""
    g = content(u)
    if g <= 1:
        return tuple(u)
    return tuple(a // g for a in u)


def is_primitive(u: Vec) -> bool:
    return content(u) == 1


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
    D = [[int(x) for x in row] for row in matrix]
    m = len(D)
    n = len(D[0]) if m else 0
    for row in D:
        if len(row) != n:
            raise DimensionError("ragged matrix")
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
    rows = len(A)
    inner = len(B)
    cols = len(B[0]) if inner else 0
    out = []
    for i in range(rows):
        if len(A[i]) != inner:
            raise DimensionError("matrix shapes do not match")
        out.append(tuple(sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)))
    return tuple(out)


def matrix_rank(rows) -> int:
    """Rank over the rationals, by fraction-free Gaussian elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    n = len(work[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                c = work[i][col]
                work[i] = [p * x - c * y for x, y in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    M = [[int(x) for x in row] for row in rows]
    if any(len(row) != n for row in M):
        raise DimensionError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def adjugate(rows) -> tuple[int, Mat]:
    """Determinant and adjugate of a nonsingular square integer matrix.

    Fraction-free (Bareiss) Gauss-Jordan elimination of [A | I]: every
    entry after step k is a (k+1)-minor of the row-permuted matrix, so
    each division is exact, and the elimination ends at [d * I | d * A^-1]
    with d = det(PA) for the row permutation P.  Then A * adj(A) =
    det(A) * I, so column j of adj(A) pairs to zero with every row of A
    but row j.
    """
    n = len(rows)
    M = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if any(len(row) != 2 * n for row in M):
        raise DimensionError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                raise PreconditionError("matrix is singular")
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot_row = M[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                c = M[i][k]
                M[i] = [(p * x - c * y) // prev for x, y in zip(M[i], pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in M)


def hermite_normal_form(matrix) -> Mat:
    """Canonical row-echelon basis of the lattice spanned by the rows.

    Pivots are positive and entries above each pivot are reduced into
    [0, pivot), which makes the result unique for a given row lattice.
    """
    basis: list[list[int]] = []
    for row in matrix:
        _hnf_insert(basis, [int(x) for x in row])
    for k in range(len(basis)):
        p = next(j for j, x in enumerate(basis[k]) if x)
        if basis[k][p] < 0:
            basis[k] = [-x for x in basis[k]]
        for i in range(k):
            q = basis[i][p] // basis[k][p]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[k])]
    return tuple(tuple(row) for row in basis)


def hermite_coordinates(basis, v) -> Vec:
    """Integer coordinates x with sum_i x_i * basis[i] = v, for a basis in
    Hermite form (as from :func:`hermite_normal_form` or :func:`saturated_span`).

    The pivots of the rows lie in increasing columns and the rows after a
    pivot are zero there, so x_i is read off pivot i once the rows before
    it are subtracted.  Anything left of v at the end, a remainder of one
    of these divisions included, means that v is not in the lattice of
    the basis.
    """
    rest = list(v)
    coords = []
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        q = rest[p] // row[p]
        if q:
            rest = [x - q * y for x, y in zip(rest, row)]
        coords.append(q)
    if any(rest):
        raise IntegrityError(f"{tuple(v)} is not in the lattice of the basis")
    return tuple(coords)


def _hnf_insert(basis: list[list[int]], v: list[int]) -> None:
    while True:
        j = next((k for k, x in enumerate(v) if x), None)
        if j is None:
            return
        pos = 0
        while pos < len(basis):
            pj = next(k for k, x in enumerate(basis[pos]) if x)
            if pj >= j:
                break
            pos += 1
        if pos == len(basis) or next(k for k, x in enumerate(basis[pos]) if x) > j:
            basis.insert(pos, v)
            return
        b = basis[pos]
        x, y, g = _xgcd(b[j], v[j])
        newb = [x * bb + y * vv for bb, vv in zip(b, v)]
        newv = [(v[j] // g) * bb - (b[j] // g) * vv for bb, vv in zip(b, v)]
        basis[pos] = newb
        v = newv


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def saturated_span(vectors) -> Mat:
    """Basis (in Hermite form) of the saturation of the span of the input.

    The saturation is the smallest sublattice containing the input that
    has a torsion-free quotient; its rank equals the rational rank of
    the span.  The saturation of a full-rank sublattice is Z^n, whose
    Hermite basis is the identity; no Smith form is needed for it.
    """
    vs = [vector(v) for v in vectors if any(v)]
    if not vs:
        return ()
    n = len(vs[0])
    if len(vs) >= n and matrix_rank(vs) == n:
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    snf = smith_normal_form(vs)
    return hermite_normal_form(snf.right_inverse[: snf.rank])
