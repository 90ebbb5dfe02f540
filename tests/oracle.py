"""Exact rational reference values for the norm, weaving and subspace layers.

Test-only and independent of the package: it imports nothing from
``weavelab`` and works in ``fractions``, so a value that agrees with it was
not computed by the code under test.  Inputs are rows of numbers that are
exact in binary (integers and dyadic floats); ``Fraction(x)`` takes them
as they are.  The norms are "l1" and "linf".

- ``inverse``: Gauss-Jordan elimination.
- ``restricted_norm(dmat, bmat, norm)``: sup_c ||D c|| / ||B c|| for a
  full-column-rank B.  In l1 the sup sits at a vertex of {c : ||Bc||_1 <= 1},
  which spans the null space of k - 1 rows of B.  In linf each row D_j has
  norm min{||l||_1 : B^T l = D_j^T} (Hahn-Banach), attained on k rows of B.
- ``worst_vi``: the six-way condition (vi), max(||(P|Y1)^-1||, ||(Q|X1)^-1||)
  over all patterns, with its first maximiser.
- ``projection_distance``: d(A, B) = 1/max(||P_A||, ||P_B||) on A + B.
- ``operator_norm``: the l1 (largest column sum) or linf (largest row sum)
  operator norm.
- ``worst_weaving``: max(||S_sigma||, ||S_sigma^-1||) over all patterns,
  infinite where S_sigma is singular, with its first maximiser.
- ``pattern_constant``: C_s (subsets) or C_u (signs), the largest
  ||sum_i c_i x_i f_i^T S^-1|| over c in {0, 1}^n or {-1, 1}^n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _row_reduce(a):
    """Reduced row echelon form of a copy of ``a`` and its pivot columns."""
    a = [list(row) for row in a]
    pivots, r = [], 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        scale = a[r][col]
        a[r] = [x / scale for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a, pivots


def rank(a) -> int:
    return len(_row_reduce(a)[1])


def inverse(a):
    """The inverse of a square matrix; ZeroDivisionError when it is singular."""
    k = len(a)
    reduced, pivots = _row_reduce([list(row) + [Fraction(int(i == j)) for j in range(k)]
                                   for i, row in enumerate(a)])
    if pivots[:k] != list(range(k)):
        raise ZeroDivisionError("singular matrix")
    return [row[k:] for row in reduced]


def _null_direction(rows, k):
    """The null direction of k - 1 rows of width k, or None if they are
    dependent (their null space is then wider than a line)."""
    reduced, pivots = _row_reduce(rows)
    free = [j for j in range(k) if j not in pivots]
    if len(free) != 1:
        return None
    c = [Fraction(0)] * k
    c[free[0]] = Fraction(1)
    for row, p in zip(reduced, pivots):
        c[p] = -row[free[0]]
    return c


def _l1(v):
    return sum((abs(x) for x in v), Fraction(0))


def restricted_norm(dmat, bmat, norm: str) -> Fraction:
    """sup_c ||D c|| / ||B c|| for (d, k) matrices D and B, B of rank k."""
    k = len(bmat[0])
    if norm == "l1":
        best = Fraction(0)
        for rows in itertools.combinations(bmat, k - 1):
            c = [Fraction(1)] if k == 1 else _null_direction(list(rows), k)
            if c is not None:
                col = [[x] for x in c]
                best = max(best, _l1(r[0] for r in matmul(dmat, col))
                           / _l1(r[0] for r in matmul(bmat, col)))
        return best
    if norm != "linf":
        raise ValueError(f"no exact restricted norm for {norm!r}")
    per_row = [None] * len(dmat)
    for rows in itertools.combinations(bmat, k):
        try:
            inv_t = transpose(inverse([list(r) for r in rows]))  # (B_R^T)^-1
        except ZeroDivisionError:
            continue
        for j, drow in enumerate(dmat):
            value = _l1(r[0] for r in matmul(inv_t, [[x] for x in drow]))
            if per_row[j] is None or value < per_row[j]:
                per_row[j] = value
    return max(per_row)


def _restricted_inverse_norm(vectors, functionals, dom, norm):
    """||(M|span dom)^-1|| for M = sum_i x_i f_i^T over the given rows,
    measured from span(vectors) back to span(dom); infinite when the
    restriction is singular.  M dom_j = sum_i x_i f_i(dom_j), so M has the
    matrix C = F dom^T in these generators."""
    c = matmul(functionals, transpose(dom))
    try:
        c_inv = inverse(c)
    except ZeroDivisionError:
        return float("inf")
    return restricted_norm(matmul(transpose(dom), c_inv), transpose(vectors), norm)


def worst_vi(x0, f0, x1, f1, norm: str):
    """(value, pattern) of the worst (vi) over all patterns in index order
    (bit 0 first), keeping the first maximiser.  X1 and Y1 are the rows of
    x0 and x1 at the 0-bits; P and Q are the basis projections onto them."""
    x0, f0, x1, f1 = map(matrix, (x0, f0, x1, f1))
    best, arg = None, None
    for bits in itertools.product((0, 1), repeat=len(x0)):
        zeros = [i for i, b in enumerate(bits) if b == 0]
        value = Fraction(0)
        if zeros:
            xs, ys = [x0[i] for i in zeros], [x1[i] for i in zeros]
            value = max(
                _restricted_inverse_norm(xs, [f0[i] for i in zeros], ys, norm),
                _restricted_inverse_norm(ys, [f1[i] for i in zeros], xs, norm))
        if best is None or value > best:
            best, arg = value, "".join(map(str, bits))
    return best, arg


def projection_distance(a, b, norm: str) -> Fraction:
    """d(A, B) for generator rows a and b: 0 when they intersect, else
    1/max(||P_A||, ||P_B||) with both norms restricted to A + B."""
    a, b = matrix(a), matrix(b)
    gens = a + b
    if rank(gens) < len(gens):
        return Fraction(0)
    zero_a, zero_b = [Fraction(0)] * len(a), [Fraction(0)] * len(b)
    p_a = [list(col) + zero_b for col in zip(*a)]
    p_b = [zero_a + list(col) for col in zip(*b)]
    bmat = transpose(gens)
    return 1 / max(restricted_norm(p_a, bmat, norm), restricted_norm(p_b, bmat, norm))


def operator_norm(a, norm: str) -> Fraction:
    """The l1 -> l1 or linf -> linf norm of a matrix."""
    if norm not in ("l1", "linf"):
        raise ValueError(f"no exact operator norm for {norm!r}")
    return max(_l1(row) for row in (transpose(a) if norm == "l1" else a))


def _sum_of_outers(vectors, functionals, coeffs):
    """sum_i c_i x_i f_i^T for rows x_i, f_i and coefficients c_i."""
    d = len(vectors[0])
    return [[sum((c * x[r] * f[s] for c, x, f in zip(coeffs, vectors, functionals)), Fraction(0))
             for s in range(d)] for r in range(d)]


def worst_weaving(x0, f0, x1, f1, norm: str):
    """(value, pattern) of the worst max(||S_sigma||, ||S_sigma^-1||) over all
    patterns in index order (bit 0 first), keeping the first maximiser; the
    pair i of S_sigma comes from the second system where bit i is 1."""
    x0, f0, x1, f1 = map(matrix, (x0, f0, x1, f1))
    best, arg = None, None
    for bits in itertools.product((0, 1), repeat=len(x0)):
        xs = [(x1 if b else x0)[i] for i, b in enumerate(bits)]
        fs = [(f1 if b else f0)[i] for i, b in enumerate(bits)]
        s = _sum_of_outers(xs, fs, [Fraction(1)] * len(xs))
        try:
            value = max(operator_norm(s, norm), operator_norm(inverse(s), norm))
        except ZeroDivisionError:
            value = float("inf")
        if best is None or value > best:
            best, arg = value, "".join(map(str, bits))
    return best, arg


def pattern_constant(vectors, functionals, norm: str, signed: bool) -> Fraction:
    """C_u when ``signed``, else C_s, of the system of rows x_i, f_i."""
    xs, fs = matrix(vectors), matrix(functionals)
    s_inv = inverse(_sum_of_outers(xs, fs, [Fraction(1)] * len(xs)))
    choices = (-1, 1) if signed else (0, 1)
    return max(operator_norm(matmul(_sum_of_outers(xs, fs, list(map(Fraction, c))), s_inv), norm)
               for c in itertools.product(choices, repeat=len(xs)))
