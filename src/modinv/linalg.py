"""Exact linear algebra on small matrices.

Solving happens over an arbitrary field ring from modinv.rings.  Integer
matrices are handled fraction-free (Bareiss), so every intermediate value
stays in Z: det_int gives a determinant, and IntegerSystem eliminates one
matrix on its sparse rows once, for repeated exact solves over Q.
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

    One fraction-free (Bareiss) forward pass runs over sparse rows.  Column
    k's pivot row is the first row from position k down with a nonzero
    entry there; it is swapped into position k, and each row below it with
    an entry f in column k becomes (pk*row - f*pivot row) / prev, where pk is
    the pivot and prev the previous pivot (1 at first).  Every division is
    exact, since every entry is a minor of the matrix.  A row with no entry
    in column k would only be multiplied by pk/prev; that waits until the
    row is next used, when the ratios of the pivots in between telescope
    into one factor.  The pass keeps each column's swap and multipliers f,
    and each pivot row as it stood when chosen: an upper triangular U whose
    diagonal is the pivots.  Attributes:

    det    determinant of the matrix when it is square, else None
    scale  |D| > 0, where D, the last pivot, is +-det of the pivot rows

    Only the sparse rows of the matrix are kept; `rows` rebuilds it dense.
    Raises UnderdeterminedSystem when the rank is below the column count.
    """

    def __init__(self, rows, ncols: int):
        self._sparse = tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in rows)
        self._ncols = ncols
        m = len(self._sparse)
        work = [dict(r) for r in self._sparse]
        level = [0] * m         # how many pivots each work row has seen
        pivots = [1]            # pivots[k]: prev at column k
        steps, upper = [], []
        sign = 1
        for col in range(ncols):
            pivot = next((i for i in range(col, m) if col in work[i]), None)
            if pivot is None:
                raise UnderdeterminedSystem(f"rank {col} < {ncols} columns")
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                level[col], level[pivot] = level[pivot], level[col]
                sign = -sign
            prev = pivots[col]
            prow = _catch_up(work[col], pivots, level[col], col)
            pk = prow[col]
            mults = []
            for i in range(col + 1, m):
                if col in work[i]:
                    row = _catch_up(work[i], pivots, level[i], col)
                    f = row[col]
                    new = {j: pk * v for j, v in row.items()}
                    for j, v in prow.items():
                        new[j] = new.get(j, 0) - f * v
                    work[i] = {j: v // prev for j, v in new.items() if v}
                    level[i] = col + 1
                    mults.append((i, f))
            pivots.append(pk)
            steps.append((pivot, tuple(mults)))
            upper.append(tuple((j, v) for j, v in prow.items() if j != col))
        self.det = sign * pivots[-1] if m == ncols else None
        self.scale = abs(pivots[-1])
        self._pivots = tuple(pivots)
        self._steps = tuple(steps)
        self._upper = tuple(upper)

    @property
    def rows(self) -> tuple:
        """The matrix, as a tuple of integer tuples."""
        return tuple(tuple(row.get(j, 0) for j in range(self._ncols))
                     for row in map(dict, self._sparse))

    def solve(self, rhs) -> list:
        """y with rows * y == scale * rhs, so that y / scale solves the system.

        The forward pass's swaps and row updates are replayed on rhs in the
        order they were made, and y comes from U by fraction-free back
        substitution: y_k = (D*b_k - sum_j U_kj*y_j) / U_kk, every division
        exact, times the sign of D.  Raises InconsistentSystem when rhs is
        outside the column span.
        """
        pivots = self._pivots
        b = list(rhs)
        level = [0] * len(b)
        top = []
        for k, (pivot, mults) in enumerate(self._steps):
            if pivot != k:
                b[k], b[pivot] = b[pivot], b[k]
                level[k], level[pivot] = level[pivot], level[k]
            prev, pk = pivots[k], pivots[k + 1]
            bk = b[k] * prev // pivots[level[k]]
            top.append(bk)
            for i, f in mults:
                bi = b[i] * prev // pivots[level[i]]
                b[i] = (pk * bi - f * bk) // prev
                level[i] = k + 1
        last = pivots[-1]
        y = [0] * len(top)
        for k in reversed(range(len(top))):
            s = last * top[k]
            for j, v in self._upper[k]:
                s -= v * y[j]
            y[k] = s // pivots[k + 1]
        if last < 0:
            y = [-v for v in y]
        for row, b in zip(self._sparse, rhs):
            if sum(a * y[j] for j, a in row) != self.scale * b:
                raise InconsistentSystem("rhs outside column span")
        return y


def _catch_up(row: dict, pivots, seen: int, now: int) -> dict:
    """A work row that has seen `seen` pivots, brought to `now`: the
    multiplications by pk/prev it skipped telescope into one factor."""
    if seen == now:
        return row
    num, den = pivots[now], pivots[seen]
    return {j: v * num // den for j, v in row.items()}
