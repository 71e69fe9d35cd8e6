"""Exact elimination against the dense Gauss-Jordan reference."""

import random
from fractions import Fraction

import pytest

from ncquad import GF, QQ, QQ_THETA, ThetaRational
from ncquad.errors import DimensionMismatchError
from ncquad.linalg import SparseEchelon, mat_inverse, mat_mul, nullspace, rank, row_space_equal, rref
from ncquad.sklyanin import sklyanin_presentation, staircase_relations

F7 = GF(7)
F31 = GF(31)
# the echelon carries GF(p) residues as ints with delayed reduction, so the
# prime fields range from tiny to 10^13, where a product of two residues
# passes 64 bits
PRIME_FIELDS = [F7, F31, GF(1000003), GF(10**13 + 37)]
FIELDS = PRIME_FIELDS + [QQ, QQ_THETA]
WORDS2 = [(i, j) for i in range(3) for j in range(3)]


def dense_rref(rows, field):
    """Gauss-Jordan elimination on dense rows, the reference for `rref`.
    Returns (reduced nonzero rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_rank(rows, field):
    return len(dense_rref(rows, field)[0])


def test_sparse_echelon_reduce():
    for field in FIELDS:
        check_sparse_echelon(field)


def test_sparse_echelon_pivot_is_the_largest_label():
    # rows arrive with their labels in scrambled order, negative labels
    # among them: each new pivot is the largest label of the row's
    # remainder, and a stored or back-substituted tail holds only smaller
    # labels
    rng = random.Random(23)
    for field in FIELDS:
        labels = rng.sample(range(-40, 40), 14)
        ech = SparseEchelon(field)
        for _ in range(12):
            row = {c: scalar(field, rng) or field.one for c in rng.sample(labels, 5)}
            rem = ech.reduce(row)
            before = set(ech.rows)
            assert ech.add(row) == bool(rem)
            assert set(ech.rows) - before == ({max(rem)} if rem else set())
        assert ech.rank > 1
        for piv, tail in list(ech.rows.items()) + list(ech.back_substitute().items()):
            assert all(c < piv for c in tail), (field, piv)


def check_sparse_echelon(field):
    rng = random.Random(11)
    ncols = 12
    for _ in range(20):
        dense = [
            [scalar(field, rng) if rng.random() < 0.3 else field.zero for _ in range(ncols)]
            for _ in range(rng.randrange(1, 10))
        ]
        sparse = [{c: v for c, v in enumerate(row) if v} for row in dense]
        ech = SparseEchelon(field)
        grew = [ech.add(row) for row in sparse]
        assert ech.rank == sum(grew) == dense_rank(dense, field)
        for row in sparse:
            assert ech.reduce(row) == {}
        probe = {c: scalar(field, rng) or field.one for c in rng.sample(range(ncols), 4)}
        rem = ech.reduce(probe)
        assert not any(c in ech.rows for c in rem)
        # the remainder holds field elements, none of them zero
        assert all(type(v) is type(field.one) and v for v in rem.values())
        # the remainder is zero exactly when the probe lies in the row space
        probe_row = [probe.get(c, field.zero) for c in range(ncols)]
        assert (rem == {}) == (dense_rank(dense + [probe_row], field) == ech.rank)
        assert ech.add(probe) == bool(rem)
        # a pivot's reduced tail is minus the remainder of its unit vector
        reduced = ech.back_substitute()
        assert reduced.keys() == ech.rows.keys()
        for piv, tail in reduced.items():
            assert {c: -field.element(v) for c, v in tail.items()} == ech.reduce({piv: field.one})


def scalar(field, rng):
    if field is QQ_THETA:
        return ThetaRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4))
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return field.from_int(rng.randrange(field.characteristic()))


def extreme_residue(field, rng):
    """A residue next to 0 or p, or one of the two halves of p, so that
    unreduced sums of products land on multiples of p."""
    p = field.characteristic()
    return field.from_int(rng.choice((0, 1, 2, p - 1, p - 2, (p - 1) // 2, (p + 1) // 2)))


def wraparound_matrices(field, rng):
    """GF(p) matrices whose delayed sums reach nonzero multiples of p, both
    at an eliminated pivot and in a remainder: rows of residues next to 0
    and p, and a row that is p - 1 times the sum of others."""
    p = field.characteristic()
    out = []
    for _ in range(20):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 9)
        out.append([[extreme_residue(field, rng) for _ in range(ncols)] for _ in range(nrows)])
    for _ in range(10):
        ncols = rng.randint(3, 8)
        base = [[extreme_residue(field, rng) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        dependent = [field.from_int(p - 1) * sum(col, field.zero) for col in zip(*base)]
        out.append(base + [dependent] + [[field.from_int(p - 1)] * ncols, [field.one] * ncols])
    return out


def relation_rows(relations):
    return [[rel.coeff(w) for w in WORDS2] for rel in relations]


def matrices(field, rng):
    """Random dense and sparse matrices, square ones among them; matrices with
    a zero row and a repeated row; an all-zero matrix; empty input; and the
    relation rows of Sklyanin and staircase algebras."""

    def random_matrix(nrows, ncols, density):
        return [
            [scalar(field, rng) if rng.random() < density else field.zero for _ in range(ncols)]
            for _ in range(nrows)
        ]

    out = []
    for _ in range(30):
        out.append(random_matrix(rng.randint(1, 7), rng.randint(1, 9), 1.0))
        out.append(random_matrix(rng.randint(1, 9), rng.randint(1, 12), 0.25))
        n = rng.randint(1, 5)
        out.append(random_matrix(n, n, rng.choice((0.5, 1.0))))
    for _ in range(10):
        m = random_matrix(rng.randint(2, 6), rng.randint(1, 8), 0.5)
        m.insert(rng.randrange(len(m)), [field.zero] * len(m[0]))
        m.append(list(m[rng.randrange(len(m))]))
        out.append(m)
    out.append([[field.zero] * 5 for _ in range(3)])
    out.append([])
    for _ in range(4):
        p, q, r, alpha, gamma = (scalar(field, rng) for _ in range(5))
        out.append(relation_rows(sklyanin_presentation(field, p, q, r).relations))
        out.append(relation_rows(staircase_relations(field, alpha, gamma)))
    if field.characteristic():
        out += wraparound_matrices(field, rng)
    return out


def combination(rows, field, rng):
    out = [field.zero] * len(rows[0])
    for row in rows:
        c = scalar(field, rng)
        out = [a + c * b for a, b in zip(out, row)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_views_match_dense_reference(field):
    rng = random.Random(field.name())
    zero = field.zero
    cases = matrices(field, rng)
    for m, other in zip(cases, cases[1:] + cases[:1]):
        ncols = len(m[0]) if m else 4
        reduced, pivots = dense_rref(m, field)
        assert rref(m, field) == (reduced, pivots), m
        assert rank(m, field) == len(reduced)

        kernel = nullspace(m, ncols, field)
        assert len(kernel) == ncols - len(reduced)
        assert dense_rank(kernel, field) == len(kernel)
        assert all(sum((a * b for a, b in zip(row, v)), zero) == zero for row in m for v in kernel), m

        # the same rows with random combinations of them, the combinations
        # alone, and an unrelated matrix
        combos = [combination(m, field, rng) for _ in m]
        for b in (m[::-1] + combos, combos, other):
            assert row_space_equal(m, b, field) == (dense_rref(b, field) == (reduced, pivots)), (m, b)

        if len(m) == ncols or not m:
            n = len(m)
            if len(reduced) == n:
                identity = [[field.one if i == j else zero for j in range(n)] for i in range(n)]
                assert mat_mul(m, mat_inverse(m, field), field) == identity, m
            else:
                with pytest.raises(ZeroDivisionError):
                    mat_inverse(m, field)


def test_ragged_matrices_refused():
    # a short row is not read as padded with zeros, nor a long row cut
    q = QQ.from_int
    one, two, three, four, five = map(q, (1, 2, 3, 4, 5))
    cases = [
        lambda: rref([[one, two], [three]], QQ),
        lambda: rank([[one], [two, three]], QQ),
        lambda: rank(iter([[one], [two, three]]), QQ),
        lambda: nullspace([[one, two, three]], 2, QQ),
        lambda: nullspace([[one]], 2, QQ),
        lambda: nullspace([[one, two], [three]], 2, QQ),
        lambda: mat_mul([[one, two], [three, four, five]], [[one], [one]], QQ),
        lambda: mat_mul([[one, two]], [[one], [one, two]], QQ),
        lambda: mat_mul([[one, two]], [[one]], QQ),
    ]
    for case in cases:
        with pytest.raises(DimensionMismatchError):
            case()
    # well-formed matrices, empty ones included, still go through
    assert rref([[one, two], [three, four]], QQ)[1] == [0, 1]
    assert nullspace([[one, two, three]], 3, QQ) == [[-two, one, q(0)], [-three, q(0), one]]
    assert nullspace([], 2, QQ) == [[one, q(0)], [q(0), one]]
    assert mat_mul([], [[one, two]], QQ) == [] and mat_mul([[]], [], QQ) == [[]]
