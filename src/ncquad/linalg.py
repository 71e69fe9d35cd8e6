"""Exact linear algebra over the coefficient fields.

One elimination routine, `SparseEchelon`: an incremental echelon form on
sparse rows whose column labels are ordered among themselves.  A row's
pivot is its largest column label, so each caller labels its columns to get
the pivot it needs.  No pivot-size heuristics are needed over exact fields.
The graded dimension oracle runs one per degree, on columns labelled by
packed word codes, whose integer order is deg-lex: its rows have a handful
of terms, but their remainders, and the multiplication tables read off
them, can fill up to the whole degree.  The oracle reads each degree's
tables off one back-substitution of its echelon: pivots in ascending label
order, each row substituted once, instead of one reduction per column.  The
annihilator checks run one per kernel, on rows of reduced products.  `rref`
runs one on the rows of a dense matrix, column j of n labelled n - 1 - j so
that the pivot is the leftmost nonzero column, and reads the reduced rows
off the same back-substitution; `rank`, `nullspace`, `mat_inverse` and
`row_space_equal` are views of it, and the tests keep a dense Gauss-Jordan
loop as the reference.  Like the reduction kernel, the echelon computes on
the field's values (`scalars.Field.lift`, `settle`, `element`) and builds
field elements only for what it returns, so every function here takes and
returns field elements.
"""

from __future__ import annotations

from .errors import DimensionMismatchError


def _width(rows):
    """The number of entries of every row; a ragged matrix is refused."""
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise DimensionMismatchError(f"ragged matrix: rows of {sorted(lengths)} entries")
    return lengths.pop() if lengths else 0


def _echelon(rows, field):
    # the pivot of an echelon row is its largest column label, so labelling
    # column j of n as n - 1 - j makes it the leftmost nonzero column; -j
    # would too, but ints below -5 are built anew each time, which made a
    # 3x9 GF(p) rref some 8% slower
    _width(rows)
    ech = SparseEchelon(field)
    for row in rows:
        ech.add(dict(zip(range(len(row) - 1, -1, -1), row)))
    return ech


def rref(rows, field):
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot column indices)."""
    rows = list(rows)
    reduced = _echelon(rows, field).back_substitute()
    ncols = len(rows[0]) if rows else 0
    last = ncols - 1
    zero, one, element = field.zero, field.one, field.element
    dense, pivots = [], []
    for label in sorted(reduced, reverse=True):
        piv = last - label
        row = [zero] * ncols
        row[piv] = one
        for c, v in reduced[label].items():
            row[last - c] = element(v)
        dense.append(row)
        pivots.append(piv)
    return dense, pivots


def rank(rows, field):
    return _echelon(list(rows), field).rank


def row_space_equal(rows_a, rows_b, field):
    ra, pa = rref(rows_a, field)
    rb, pb = rref(rows_b, field)
    return ra == rb and pa == pb


def nullspace(rows, ncols, field):
    """Canonical right-nullspace basis of the matrix, one vector per free column."""
    rows = list(rows)
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatchError(f"a row of the matrix does not have {ncols} entries")
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
    n, k, m = len(a), len(b), _width(b)
    if a and _width(a) != k:
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
    """Incremental echelon form over sparse rows with ordered column labels.

    The pivot of a row is its largest column label in the labels' natural
    order, so a caller picks its pivots by how it labels its columns: the
    oracle by packed word codes, `rref` by reversed column indices.  Rows
    are stored pivot-normalized, as their tails: `rows` maps each pivot to
    the other terms of its row, divided by the pivot coefficient.  Each row
    is reduced against the rows stored before it; `back_substitute` clears
    the later pivot columns from every tail.

    The rows hold the field's values (`field.lift`), as the reduction kernel
    does: a step adds -f * t to an entry unsettled, an entry is settled
    (over GF(p), reduced mod p) when its column is eliminated and when the
    remainder is returned, and `field.element` builds the elements that
    `reduce` returns.  A row passed in may hold elements or values, as
    the oracle's rows do: `add` and `reduce` lift every entry, and a
    value lifts to itself.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, row):
        """Remainder of `row` in settled values: a new dict with no pivot
        column and no zero."""
        lift, settle = self.field.lift, self.field.settle
        rows = self.rows
        row = {c: lift(v) for c, v in row.items()}
        hits = {c for c in row if c in rows}
        # eliminating a pivot only brings in smaller columns, so taking the
        # largest pivot column first ends after at most one step per pivot;
        # a zero entry is dropped when popped or at the end
        while hits:
            piv = max(hits)
            hits.discard(piv)
            f = settle(row.pop(piv))
            if not f:
                continue
            nf = -f
            for c, t in rows[piv].items():
                acc = row.get(c)
                if acc is None:
                    row[c] = nf * t
                    if c in rows:
                        hits.add(c)
                else:
                    row[c] = acc + nf * t
        return {c: r for c, v in row.items() if (r := settle(v))}

    def reduce(self, row):
        """Fully reduced remainder of `row` (dict column -> coeff): a new dict
        in which no column is a pivot."""
        element = self.field.element
        return {c: element(v) for c, v in self._reduce(row).items()}

    def add(self, row):
        """Reduce `row` (dict column -> coeff) and absorb it; True if rank grew."""
        row = self._reduce(row)
        if not row:
            return False
        piv = max(row)
        lead = row.pop(piv)
        if lead != 1:  # a monic row is stored as it is
            field = self.field
            settle = field.settle
            inv = field.lift(field.element(lead) ** -1)
            row = {c: settle(v * inv) for c, v in row.items()}
        self.rows[piv] = row
        return True

    def back_substitute(self):
        """The reduced row echelon form: each pivot's tail with every pivot
        column cleared, in settled values.

        Pivots go in ascending label order and each row is substituted once:
        a stored tail holds only smaller columns, whose reduced tails are
        already known, so a pivot column c with coefficient t in the tail is
        replaced by -t times the reduced tail of c.
        """
        settle = self.field.settle
        reduced = {}
        for piv in sorted(self.rows):
            out = {}
            for c, t in self.rows[piv].items():
                sub = reduced.get(c)
                if sub is None:
                    acc = out.get(c)
                    out[c] = t if acc is None else acc + t
                    continue
                nt = -t
                for c2, v in sub.items():
                    acc = out.get(c2)
                    out[c2] = nt * v if acc is None else acc + nt * v
            reduced[piv] = {c: r for c, v in out.items() if (r := settle(v))}
        return reduced
