"""Sparse incremental echelon form against dense row reduction."""

import random

from ncquad import GF
from ncquad.linalg import SparseEchelon, rank

F31 = GF(31)


def test_sparse_echelon_reduce():
    rng = random.Random(11)
    ncols = 12
    for _ in range(20):
        dense = [
            [F31.from_int(rng.randrange(31)) if rng.random() < 0.3 else F31.zero for _ in range(ncols)]
            for _ in range(rng.randrange(1, 10))
        ]
        sparse = [{c: v for c, v in enumerate(row) if v} for row in dense]
        ech = SparseEchelon(F31, lambda c: c)
        grew = [ech.add(row) for row in sparse]
        assert ech.rank == sum(grew) == rank(dense, F31)
        for row in sparse:
            assert ech.reduce(row) == {}
        probe = {c: F31.from_int(rng.randrange(1, 31)) for c in rng.sample(range(ncols), 4)}
        rem = ech.reduce(probe)
        assert not any(c in ech.rows for c in rem)
        # the remainder is zero exactly when the probe lies in the row space
        assert (rem == {}) == (rank(dense + [[probe.get(c, F31.zero) for c in range(ncols)]], F31) == ech.rank)
        assert ech.add(probe) == bool(rem)
