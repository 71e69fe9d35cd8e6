"""Exact linear algebra over the coefficient fields.

One elimination routine, `SparseEchelon`: an incremental echelon form on
sparse rows keyed by arbitrary hashable column labels.  No pivot-size
heuristics are needed over exact fields.  The graded dimension oracle runs
one per degree: its rows have a handful of terms, but their remainders, and
the multiplication tables read off them, can fill up to the whole degree.
The annihilator checks run one per kernel, on rows of reduced products.
`rref` runs one on the rows of a dense matrix, keyed by column index, and
`rank`, `nullspace`, `mat_inverse` and `row_space_equal` are views of it;
the tests keep a dense Gauss-Jordan loop as the reference.
"""

from __future__ import annotations

import operator

from .errors import DimensionMismatchError


def rref(rows, field):
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot column indices)."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    # the pivot of an echelon row is its largest column under the key, so
    # negated indices make it the leftmost nonzero column
    ech = SparseEchelon(field, operator.neg)
    for row in rows:
        ech.add(dict(enumerate(row)))
    pivots = sorted(ech.rows)
    zero, one = field.zero, field.one
    reduced = []
    for piv in pivots:
        # the stored rows are not back-substituted: reducing the tail clears
        # every later pivot column, and no step brings in a column left of it
        row = ech.reduce({c: v for c, v in ech.rows[piv].items() if c != piv})
        row[piv] = one
        reduced.append([row.get(c, zero) for c in range(ncols)])
    return reduced, pivots


def rank(rows, field):
    return len(rref(rows, field)[0])


def row_space_equal(rows_a, rows_b, field):
    ra, pa = rref(rows_a, field)
    rb, pb = rref(rows_b, field)
    return ra == rb and pa == pb


def nullspace(rows, ncols, field):
    """Canonical right-nullspace basis of the matrix, one vector per free column."""
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return basis


def mat_mul(a, b, field):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != k:
        raise DimensionMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {k}x{m}")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = field.zero
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_inverse(a, field):
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatchError("matrix is not square")
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)] for i, r in enumerate(a)]
    red, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red[:n]]


class SparseEchelon:
    """Incremental echelon form over sparse rows with hashable column keys.

    `key` orders columns; the pivot of a row is its largest column under
    `key`.  Rows are stored pivot-normalized and reduced against the rows
    stored before them; later rows are not substituted back.
    """

    def __init__(self, field, key):
        self.field = field
        self.key = key
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """Fully reduced remainder of `row` (dict column -> coeff): a new dict
        in which no column is a pivot."""
        key = self.key
        rows = self.rows
        row = {c: v for c, v in row.items() if v}
        hits = {c for c in row if c in rows}
        # eliminating a pivot only brings in smaller columns, so taking the
        # largest pivot column first ends after at most one step per pivot
        while hits:
            piv = max(hits, key=key)
            hits.discard(piv)
            f = row.pop(piv)
            for c, v in rows[piv].items():
                if c == piv:
                    continue
                nv = row.get(c)
                if nv is None:
                    row[c] = -f * v
                    if c in rows:
                        hits.add(c)
                    continue
                nv = nv - f * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
                    hits.discard(c)
        return row

    def add(self, row):
        """Reduce `row` (dict column -> coeff) and absorb it; True if rank grew."""
        row = self.reduce(row)
        if not row:
            return False
        piv = max(row, key=self.key)
        inv = self.field.one / row[piv]
        self.rows[piv] = {c: v * inv for c, v in row.items()}
        return True
