"""Exact linear algebra on small dense matrices.

Solving happens over an arbitrary field ring from modinv.rings.  Integer
matrices are handled fraction-free (Bareiss), so every intermediate value
stays in Z: det_int gives a determinant, and IntegerSystem prepares one
matrix for repeated exact solves over Q or reduced mod p.
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


class IntegerSystem:
    """An integer matrix of full column rank, prepared for repeated solves.

    One fraction-free Gauss-Jordan pass picks a pivot row for each column
    (the first remaining row with a nonzero entry) and applies the same row
    operations to an identity matrix.  When it ends, the pivot rows P have
    become det*I and the identity has become det*P^-1, the adjugate of P up
    to sign; every division in the pass is exact.  Attributes:

    rows      the matrix, as a tuple of integer tuples
    det       determinant of the matrix when it is square, else None
    scale     |det P| > 0
    adjugate  per column, (row index, value) pairs with
              sum(value * rows[i][k]) == scale if k == column else 0

    Raises UnderdeterminedSystem when the rank is below the column count.
    """

    def __init__(self, rows, ncols: int):
        self.rows = tuple(tuple(r) for r in rows)
        m = len(self.rows)
        work = []
        for i, row in enumerate(self.rows):
            entries = {j: v for j, v in enumerate(row) if v}
            entries[ncols + i] = 1
            work.append(entries)
        sign, prev = 1, 1
        for col in range(ncols):
            pivot = next((i for i in range(col, m) if work[i].get(col)), None)
            if pivot is None:
                raise UnderdeterminedSystem(f"rank {col} < {ncols} columns")
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                sign = -sign
            prow = work[col]
            pk = prow[col]
            for i in range(m):
                f = work[i].get(col, 0)
                if i == col or (f == 0 and pk == prev):
                    continue
                new = {j: pk * v for j, v in work[i].items()}
                if f:
                    for j, v in prow.items():
                        new[j] = new.get(j, 0) - f * v
                work[i] = {j: v // prev for j, v in new.items() if v}
            prev = pk
        self.det = sign * prev if m == ncols else None
        unit = -1 if prev < 0 else 1
        self.scale = unit * prev
        self.adjugate = tuple(
            tuple((j - ncols, unit * v) for j, v in sorted(work[k].items()) if j >= ncols)
            for k in range(ncols))

    def solve(self, rhs, modulus: int = 0) -> list:
        """y with rows * y == scale * rhs, so that y / scale solves the system.

        With a modulus the solve runs in Z/modulus: y is reduced, the check
        holds mod the modulus, and a scale divisible by it raises
        UnderdeterminedSystem.  Raises InconsistentSystem when rhs is
        outside the column span.
        """
        if modulus and self.scale % modulus == 0:
            raise UnderdeterminedSystem(f"pivot minor {self.scale} vanishes mod {modulus}")
        y = [sum(v * rhs[i] for i, v in row) for row in self.adjugate]
        if modulus:
            y = [v % modulus for v in y]
        for row, b in zip(self.rows, rhs):
            r = sum(a * v for a, v in zip(row, y) if a) - self.scale * b
            if (r % modulus if modulus else r):
                raise InconsistentSystem("rhs outside column span")
        return y
