"""Exact linear algebra on small dense matrices.

Solving happens over an arbitrary field ring from modinv.rings; determinants
of integer matrices use fraction-free (Bareiss) elimination so they stay in Z.
"""

from .rings import Ring


class InconsistentSystem(Exception):
    """The right-hand side is not in the column span."""


class UnderdeterminedSystem(Exception):
    """The system is solvable but the solution is not unique."""


def det_int(rows) -> int:
    """Determinant of a square integer matrix (Bareiss, division-free result)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_unique(ring: Ring, rows, rhs):
    """Solve M x = rhs over a field, requiring a unique solution.

    rows is a list of matrix rows (raw ring values), rhs a list of raw values.
    Returns the solution as a list of raw values.  Raises InconsistentSystem
    when no solution exists and UnderdeterminedSystem when more than one does.
    """
    if not ring.is_field:
        raise ValueError("solve_unique needs a field")
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    zero = ring.zero()
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, m) if aug[i][col] != zero), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        # columns before col are zero in the pivot row, so only its nonzero
        # entries from col on are scaled and then used to update other rows
        row = aug[r]
        scale = ring.inv(row[col])
        nonzero = []
        for j in range(col, ncols + 1):
            if row[j] != zero:
                row[j] = ring.mul(scale, row[j])
                nonzero.append((j, row[j]))
        for i in range(m):
            other = aug[i]
            factor = other[col]
            if i != r and factor != zero:
                for j, w in nonzero:
                    other[j] = ring.sub(other[j], ring.mul(factor, w))
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if aug[i][ncols] != zero:
            raise InconsistentSystem("rhs outside column span")
    if len(pivots) < ncols:
        raise UnderdeterminedSystem(f"{ncols - len(pivots)} free columns")
    solution = [zero] * ncols
    for row, col in enumerate(pivots):
        solution[col] = aug[row][ncols]
    return solution
