"""Parameter-specific layer for three-generator Sklyanin algebras:
classification of parameter triples, the change-of-variables chain onto the
staircase presentation, the normal-form recursion, and the isomorphism
decision procedure with its 24-element group.

Every witness substitution the layer returns is verified by transporting the
relation space and comparing row spaces, so a wrong formula cannot survive
silently; `classify` and `are_isomorphic` each check their witness once, at
their single return.  Each move is one (map, witness) entry of
`_triple_moves` or `_pair_moves`.  One breadth-first walk (`_walk`) closes
the triple moves on rays for the witness search, the pair moves for the
orbit and the pair witnesses for the group; it records the edge that first
reached each point, and witnesses are composed only along a path asked for.
A ray is a triple divided by its first nonzero parameter: the three relations
have pairwise disjoint supports, so two triples present the same relation
space exactly when their rays are equal.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter, deque
from dataclasses import dataclass

from .errors import DegenerateDenominatorError, PreconditionViolatedError
from .groebner import Presentation
from .linalg import mat_mul, rref
from .ncpoly import LinearSub, NcPoly, apply_sub, degree_lex
from .potential import relations_from_potential, sklyanin_potential, staircase_potential, sum_cube_potential
from .scalars import QQ_THETA

X, Y, Z = 0, 1, 2
_ORDER3 = degree_lex(3)
_WORDS2 = sorted(((i, j) for i in range(3) for j in range(3)), key=_ORDER3.key, reverse=True)


@dataclass(frozen=True, slots=True)
class ParamTriple:
    """Sklyanin parameter triple over an exact field of characteristic != 3."""

    field: object
    p: object
    q: object
    r: object

    @classmethod
    def make(cls, field, p, q, r):
        conv = lambda v: field.from_int(v) if isinstance(v, int) else v
        return cls(field, conv(p), conv(q), conv(r))

    def presentation(self) -> Presentation:
        return sklyanin_presentation(self.field, self.p, self.q, self.r)

    # -- parameter predicates ------------------------------------------------

    def is_free(self):
        return not (self.p or self.q or self.r)

    def is_degenerate(self):
        p, q, r = self.p, self.q, self.r
        two_zero = not (p * q or p * r or q * r)
        return two_zero or p**3 == q**3 == r**3

    def in_m0(self):
        return not self.is_degenerate()

    def in_m1(self):
        """r != 0 and the normalized pair (p/r, q/r) lies in the set M."""
        return bool(self.r) and in_m_set(self.field, self.p / self.r, self.q / self.r)

    def in_m2(self):
        return self.in_m0() and not self.in_m1()

    def normalized_pair(self):
        """The (a, b) with Q^{a,b,1} presenting the same algebra; needs r != 0."""
        if not self.r:
            raise PreconditionViolatedError("triple has r = 0")
        return (self.p / self.r, self.q / self.r)


def sklyanin_presentation(field, p, q, r) -> Presentation:
    """Relations p yz + q zy + r xx, p zx + q xz + r yy, p xy + q yx + r zz."""
    pairs = [
        [((Y, Z), p), ((Z, Y), q), ((X, X), r)],
        [((Z, X), p), ((X, Z), q), ((Y, Y), r)],
        [((X, Y), p), ((Y, X), q), ((Z, Z), r)],
    ]
    rels = [NcPoly.from_pairs(field, 3, pr) for pr in pairs]
    return Presentation(field, 3, tuple(f for f in rels if f))


def staircase_relations(field, alpha, gamma):
    """The triangular relations with leading words xx, xy, yz:

        xx - zx + zy + alpha zz,  xy - yy - alpha zx + gamma zz,
        yz - zx + zy + alpha zz
    """
    one = field.one
    return [
        NcPoly.from_pairs(field, 3, [((X, X), one), ((Z, X), -one), ((Z, Y), one), ((Z, Z), alpha)]),
        NcPoly.from_pairs(field, 3, [((X, Y), one), ((Y, Y), -one), ((Z, X), -alpha), ((Z, Z), gamma)]),
        NcPoly.from_pairs(field, 3, [((Y, Z), one), ((Z, X), -one), ((Z, Y), one), ((Z, Z), alpha)]),
    ]


def staircase_presentation(field, alpha, gamma) -> Presentation:
    return Presentation(field, 3, tuple(staircase_relations(field, alpha, gamma)))


# ---------------------------------------------------------------------------
# relation-space transport


def _rows(relations):
    """Coefficient rows of quadratic relations over the degree-2 words."""
    return [[rel.coeff(w) for w in _WORDS2] for rel in relations]


def _verified(sub, source, target, what):
    moved = source.relations
    # the identity moves no relation, so only the row spaces are compared
    if sub.matrix != LinearSub.identity(sub.field, sub.ngens).matrix:
        moved = [apply_sub(rel, sub) for rel in moved]
    if rref(_rows(moved), source.field) != rref(_rows(target.relations), source.field):
        raise AssertionError(f"{what}: substitution does not transport the relation space")
    return sub


# ---------------------------------------------------------------------------
# elementary isomorphism moves


def root1_sub(triple: ParamTriple):
    """(p, q, r) -> (p, q, theta r) via z -> theta^2 z."""
    return _checked_move(triple, 0, "root1")


def root2_sub(triple: ParamTriple):
    """(p, q, r) -> (t^2 p + t q + r, t p + t^2 q + r, p + q + r) for t = theta,
    via x -> x+y+z, y -> x + t y + t^2 z, z -> x + t^2 y + t z."""
    return _checked_move(triple, 1, "root2")


def _checked_move(triple, index, what):
    """The image of `triple` under one triple move, and its verified witness."""
    move, witness = _triple_moves(triple.field)[index]
    out = move(triple)
    return out, _verified(witness, triple.presentation(), out.presentation(), what)


def _triple_moves(field):
    """The elementary moves on triples as (map, witness) pairs: root1 and
    root2 for t = theta, the same for t = theta^2, then the x/y swap."""
    one, zero = field.one, field.zero
    th = field.theta()
    moves = []
    for t in (th, th * th):
        t2 = t * t
        root1 = LinearSub.from_columns(field, [[one, zero, zero], [zero, one, zero], [zero, zero, t2]])
        root2 = LinearSub.from_columns(field, [[one, one, one], [one, t, t2], [one, t2, t]])
        moves.append((lambda s, t=t: ParamTriple(field, s.p, s.q, t * s.r), root1))
        moves.append((lambda s, t=t, t2=t2: ParamTriple(
            field, t2 * s.p + t * s.q + s.r, t * s.p + t2 * s.q + s.r, s.p + s.q + s.r), root2))
    swap = LinearSub.from_columns(field, [[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    moves.append((lambda s: ParamTriple(field, s.q, s.p, s.r), swap))
    return moves


def _walk(start, moves):
    """Breadth-first closure of `start` under `moves`.

    Yields (edges, node) each time a node is first reached, the start first.
    `edges` maps every node reached so far to (parent node, index of the move
    reaching it), and the start to None; a caller that has what it needs
    leaves the loop, and no further node is expanded."""
    edges = {start: None}
    yield edges, start
    frontier = deque([start])
    while frontier:
        parent = frontier.popleft()
        for index, move in enumerate(moves):
            node = move(parent)
            if node in edges:
                continue
            edges[node] = (parent, index)
            yield edges, node
            frontier.append(node)


def _path_witness(field, edges, node, moves):
    """The substitution along the walk path from the root of `edges` to
    `node`: the witnesses of the `moves` taken, composed in walk order."""
    indices = []
    while edges[node] is not None:
        node, index = edges[node]
        indices.append(index)
    acc = LinearSub.identity(field, 3)
    for index in reversed(indices):
        acc = moves[index][1].compose(acc)
    return acc


def _ray(triple: ParamTriple) -> ParamTriple:
    """The triple divided by its first nonzero parameter; the free triple is
    its own ray."""
    if triple.is_free():
        return triple
    ((p, q, r),) = _proj_normalize(((triple.p, triple.q, triple.r),), triple.field)
    return ParamTriple(triple.field, p, q, r)


def _search_witness(source: ParamTriple, target: ParamTriple) -> LinearSub:
    """Walk the triple moves on rays from source's ray and compose the moves
    along the path to target's ray.  The moves are linear, so the ray of a
    move's output depends only on the ray of its input, and the walk has one
    node per relation space.  The caller verifies the result."""
    f = source.field
    target_ray = _ray(target)
    moves = _triple_moves(f)
    for edges, ray in _walk(_ray(source), [lambda t, move=move: _ray(move(t)) for move, _ in moves]):
        if ray == target_ray:
            return _path_witness(f, edges, ray, moves)
    raise AssertionError("no witness found; classification tables are inconsistent")


# ---------------------------------------------------------------------------
# classification


class SklyaninKind(enum.Enum):
    FREE_ALGEBRA = "FreeAlgebra"
    MONO_XY = "MonoXY"
    MONO_XX = "MonoXX"
    QUANTUM_POLY = "QuantumPoly"
    GENERIC_M1 = "GenericM1"


@dataclass(frozen=True, slots=True)
class SklyaninClass:
    kind: SklyaninKind
    alpha: object = None
    pair: tuple = None
    witness: LinearSub = None
    canonical: ParamTriple = None


def classify(triple: ParamTriple) -> SklyaninClass:
    """Total classification of a parameter triple over a field possessing a
    primitive cube root of unity.  The free and generic triples present their
    canonical algebra as given; the others walk to it."""
    f = triple.field
    th = f.theta()  # NoCubeRootError if the classification layer is unavailable
    p, q, r = triple.p, triple.q, triple.r
    alpha = pair = None

    if triple.is_free():
        kind, canonical = SklyaninKind.FREE_ALGEBRA, ParamTriple(f, f.zero, f.zero, f.zero)
    elif triple.is_degenerate():
        if (not p and not q and r) or (p == q and p and p**3 == r**3):
            kind, canonical = SklyaninKind.MONO_XX, ParamTriple(f, f.zero, f.zero, f.one)
        else:
            kind, canonical = SklyaninKind.MONO_XY, ParamTriple(f, f.one, f.zero, f.zero)
    elif triple.in_m2():
        if not r:
            alpha = -q / p
        else:
            alpha = th * (p - th * th * q) / (p - th * q)
        kind, canonical = SklyaninKind.QUANTUM_POLY, ParamTriple(f, f.one, -alpha, f.zero)
    else:
        pair = triple.normalized_pair()
        kind, canonical = SklyaninKind.GENERIC_M1, ParamTriple(f, *pair, f.one)

    if kind in (SklyaninKind.FREE_ALGEBRA, SklyaninKind.GENERIC_M1):
        witness = LinearSub.identity(f, 3)
    else:
        witness = _search_witness(triple, canonical)
    witness = _verified(witness, triple.presentation(), canonical.presentation(), "classification")
    return SklyaninClass(kind, alpha, pair, witness, canonical)


# ---------------------------------------------------------------------------
# the substitution chain


def in_m_set(field, a, b) -> bool:
    """(a, b) != (0, 0), (a+b)^3 + 1 != 0, (a^3 - 1, b^3 - 1) != (0, 0)."""
    one = field.one
    return bool((a or b) and ((a + b) ** 3 + one) and (a**3 - one or b**3 - one))


@dataclass(frozen=True, slots=True)
class ChainResult:
    steps: tuple                 # the four substitutions, in application order
    composed: LinearSub
    ab_coeffs: tuple             # intermediate coefficients after the averaging step
    alpha: object
    gamma: object
    alpha_matches_formula: bool
    gamma_matches_formula: bool


def substitution_chain(field, a, b) -> ChainResult:
    """Drive Q^{a,b,1} onto the staircase presentation through four linear
    substitutions, returning the intermediate coefficients and final
    parameters, all read off the transported relations and cross-checked
    against the closed-form expressions."""
    one, zero = field.one, field.zero
    th = field.theta()
    th2 = th * th
    if not in_m_set(field, a, b):
        raise PreconditionViolatedError("(a, b) is not an admissible normalized pair")
    if not (a + b):
        raise PreconditionViolatedError("a + b = 0; apply a root-of-unity move first")
    if a**3 == b**3:
        raise PreconditionViolatedError("a^3 = b^3; this family has a finite basis instead")

    s1 = LinearSub.from_columns(field, [[-one / (a + b), zero, zero], [zero, one, zero], [zero, zero, one]])
    s2 = LinearSub.from_columns(field, [[one, one, one], [one, th2, th], [one, th, th2]])

    pot = sklyanin_potential(field, a, b, one)
    pot = apply_sub(apply_sub(pot, s1), s2)
    scale = pot.coeff((X, X, X))
    ap = pot.coeff((X, Y, Z)) / scale - one
    bp = pot.coeff((X, Z, Y)) / scale - one
    if pot != sum_cube_potential(field, ap, bp).scale(scale):
        raise AssertionError("transported potential is not of the symmetric-cube form")

    denom = (a + b) ** 3 + one
    ap_formula = (one * 3) * (a + b) ** 2 * ((th - one) * a + (th2 - one) * b) / denom
    bp_formula = (one * 3) * (a + b) ** 2 * ((th2 - one) * a + (th - one) * b) / denom
    if (ap, bp) != (ap_formula, bp_formula):
        raise AssertionError("intermediate coefficients disagree with their closed forms")
    if not (ap and bp and (ap - bp) and (ap + bp)):
        raise PreconditionViolatedError("degenerate intermediate coefficients")

    s3 = LinearSub.from_columns(
        field,
        [[ap / (ap + bp), zero, zero], [bp / (ap + bp), one, -one], [zero, zero, one]],
    )
    d3 = (ap - bp) ** 3
    s4 = LinearSub.from_columns(
        field,
        [
            [one, -(ap - bp) / ap, ((ap + bp) ** 2 + ap * ap * bp) / d3],
            [zero, (ap - bp) / ap, -((ap + bp) ** 2 + ap * bp * bp) / d3],
            [zero, zero, -(ap + bp) / (ap - bp) ** 2],
        ],
    )

    composed = s4.compose(s3).compose(s2).compose(s1)
    source = sklyanin_presentation(field, a, b, one)
    reduced, pivots = rref(_rows(apply_sub(rel, composed) for rel in source.relations), field)
    lead_words = [_WORDS2[c] for c in pivots]
    if lead_words != [(X, X), (X, Y), (Y, Z)]:
        raise AssertionError(f"transported leading words are {lead_words}")
    idx = {w: i for i, w in enumerate(_WORDS2)}
    alpha = reduced[0][idx[(Z, Z)]]
    gamma = reduced[1][idx[(Z, Z)]]
    if reduced != _rows(staircase_relations(field, alpha, gamma)):
        raise AssertionError("transported relations are not of staircase shape")
    if not (alpha or gamma):
        raise AssertionError("alpha = gamma = 0 cannot arise from an admissible pair")

    # the same data through the potential route must give the same span
    pot = apply_sub(apply_sub(pot, s3), s4)
    if rref(_rows(relations_from_potential(pot)), field) != (reduced, pivots):
        raise AssertionError("potential route and relation route disagree")
    nu = pot.coeff((X, X, X))
    if pot != staircase_potential(field, alpha, gamma).scale(nu):
        raise AssertionError("transported potential is not the staircase potential")

    apb, amb = ap + bp, ap - bp
    alpha_formula = -(apb**3 + ap * bp * (ap**2 + bp**2)) / amb**4
    # closed form for gamma; the overall sign is the one the transported
    # relations actually produce
    gamma_formula = (
        apb**4 * (ap**2 - ap * bp + bp**2)
        + ap * bp * apb**3 * (2 * ap**2 + 2 * bp**2 - 3 * ap * bp)
        + ap**2 * bp**2 * (ap**4 + bp**4 + ap**2 * bp**2 - ap**3 * bp - ap * bp**3)
    ) / amb**8
    return ChainResult(
        steps=(s1, s2, s3, s4),
        composed=composed,
        ab_coeffs=(ap, bp),
        alpha=alpha,
        gamma=gamma,
        alpha_matches_formula=alpha == alpha_formula,
        gamma_matches_formula=gamma == gamma_formula,
    )


# ---------------------------------------------------------------------------
# the normal-form recursion


class RecursionOutcome(enum.Enum):
    CONTINUE = "Continue"
    SIGMA = "Sigma"
    RANK_ANOMALY = "RankAnomaly"


@dataclass(frozen=True, slots=True)
class RecursionState:
    k: int
    a: object
    b: object
    outcome: RecursionOutcome


def coefficient_recursion(field, alpha, gamma, kmax: int):
    """Iterate the coefficient recursion for xz^k x and xz^k y modulo the
    right ideal generated by y and z, starting from a_0 = b_0 = 0.

    Each state reports the step to k+1: CONTINUE when the 3x3 system has the
    expected rank-2 shape, SIGMA when its first two columns are proportional
    (the finite-basis branch, entered at k+1), RANK_ANOMALY when the system
    has full rank, which never happens (the proof is below).

    The system is solved in closed form.  Two rows whose minor on the first
    two columns is nonzero span a plane, and their cross product spans its
    orthogonal line; that minor is the product's last coordinate, so the
    next (a, b) is the product divided by it.  The system has rank 2 when
    the third row is orthogonal to the product, and full rank otherwise.

    Full rank never arises along the recursion, so RANK_ANOMALY only
    guards the closed form.  The determinant is
    D(a, b) = a(alpha - gamma) - (a - 1)(b - a)(b + alpha), which is 0 at
    a = b = 0.  If D(a, b) = 0 and the step is not SIGMA, the third row lies
    in the plane of the other two, so the next (a', b', 1) solves all three
    rows: row 0 minus row 2 gives b = a a', row 0 gives
    b' = a' - b - alpha, and row 1 gives gamma = alpha a' + (b - a) b'.
    Then b' - a' = -(a a' + alpha), b' + alpha = a'(1 - a) and
    b - a = a(a' - 1), so D(a', b') is a'(a' - 1) times
    -alpha - a(a'(1 - a) - alpha) + (a a' + alpha)(1 - a), which is 0.
    """
    if kmax < 0:
        raise ValueError(f"kmax {kmax} is negative")
    if not (alpha or gamma):
        raise PreconditionViolatedError("(alpha, gamma) = (0, 0)")
    one = field.one
    a, b = field.zero, field.zero
    states = []
    for k in range(kmax):
        m = [
            [-one, one, b + alpha],
            [alpha, b - a, -gamma],
            [a - one, one, alpha],
        ]
        # two rows u, v with a nonzero minor on columns 0 and 1, and the third w
        for u, v, w in ((m[0], m[1], m[2]), (m[0], m[2], m[1]), (m[1], m[2], m[0])):
            if u[0] * v[1] - u[1] * v[0]:
                break
        else:
            states.append(RecursionState(k, a, b, RecursionOutcome.SIGMA))
            return states
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if w[0] * cross[0] + w[1] * cross[1] + w[2] * cross[2]:
            states.append(RecursionState(k, a, b, RecursionOutcome.RANK_ANOMALY))
            return states
        states.append(RecursionState(k, a, b, RecursionOutcome.CONTINUE))
        a, b = cross[0] / cross[2], cross[1] / cross[2]
    states.append(RecursionState(kmax, a, b, RecursionOutcome.CONTINUE))
    return states


def expected_normal_words(d: int, sigma_k=None):
    """Degree-d normal words of the staircase presentation, descending.

    With `sigma_k=None` (the generic branch) these are z^k y^m and
    z^k y^m x z^j.  With `sigma_k=k` (finite branch entered at k+1) they are
    z^j y^m w for w an initial subword of x z^{k+1} y y y...
    """
    words = []
    if sigma_k is None:
        for k in range(d + 1):
            words.append((Z,) * k + (Y,) * (d - k))
        for k in range(d):
            for m in range(d - k):
                j = d - 1 - k - m
                words.append((Z,) * k + (Y,) * m + (X,) + (Z,) * j)
    else:
        for j in range(d + 1):
            for m in range(d + 1 - j):
                ell = d - j - m
                if ell == 0:
                    tail = ()
                elif ell <= sigma_k + 2:
                    tail = (X,) + (Z,) * (ell - 1)
                else:
                    tail = (X,) + (Z,) * (sigma_k + 1) + (Y,) * (ell - sigma_k - 2)
                words.append((Z,) * j + (Y,) * m + tail)
    words.sort(key=_ORDER3.key, reverse=True)
    return words


# ---------------------------------------------------------------------------
# the isomorphism group on normalized pairs


def _pair_moves(field):
    """The two generating moves on normalized pairs as (map, witness) pairs:
    (a, b) -> (w a, w b) and the Möbius-type mix map.  They are root1 and root2
    at t = theta^2 read on the chart r = 1, written out because that is faster."""
    th = field.theta()
    th2 = th * th
    one, zero = field.one, field.zero

    def scale_map(pair):
        a, b = pair
        return (th * a, th * b)

    def mix_map(pair):
        a, b = pair
        d = a + b + one
        if not d:
            raise DegenerateDenominatorError("a + b + 1 = 0 during orbit closure")
        return ((th * a + th2 * b + one) / d, (th2 * a + th * b + one) / d)

    # the symmetric theta matrix S transports onto the swapped image pair, so
    # the mix map's witness is S^-1: S with theta and theta^2 exchanged, over 3.
    # Both witnesses are symmetric, so their rows are their columns.
    third = one / 3
    u, v = th2 * third, th * third
    return (
        (scale_map, LinearSub(field, ((one, zero, zero), (zero, one, zero), (zero, zero, th)))),
        (mix_map, LinearSub(field, ((u, v, third), (v, u, third), (third, third, third)))),
    )


def _orbit_edges(field, a, b):
    """The walk's edges over the orbit of (a, b) under the two pair maps:
    member -> (parent, move index), the start -> None.  `_path_witness` with
    `_pair_moves` composes the substitution for one member."""
    if not in_m_set(field, a, b):
        raise PreconditionViolatedError("(a, b) outside the admissible set")
    for edges, pair in _walk((a, b), [move for move, _ in _pair_moves(field)]):
        if not in_m_set(field, *pair):
            raise AssertionError(f"orbit left the admissible set at {pair}")
        if len(edges) > 24:
            raise AssertionError("orbit exceeded 24 points")
    return edges


def iso_group_orbit(field, a, b):
    """All normalized pairs presenting an algebra isomorphic to Q^{a,b,1},
    as a deterministically ordered list of at most 24 pairs.  Only the pairs
    are computed; no witness substitution is composed."""
    orbit = _orbit_edges(field, a, b)
    return sorted(orbit, key=lambda pr: (field.render(pr[0]), field.render(pr[1])))


# ---------------------------------------------------------------------------
# abstract invariants of the pair group


def _proj_normalize(m, field):
    for row in m:
        for v in row:
            if v:
                inv = field.one / v
                return tuple(tuple(x * inv for x in r) for r in m)
    raise ValueError("zero matrix")


@dataclass(frozen=True, slots=True)
class GroupInvariants:
    order: int
    center_order: int
    element_orders: dict
    sl2_f3_order: int
    sl2_f3_center_order: int
    sl2_f3_element_orders: dict
    matches_sl2_f3: bool


def _group_profile(elements, gens, mul, identity):
    """(order, centre order, element-order counts) of the finite group
    `elements` under `mul`; the centre is what commutes with every one of
    `gens`, which generate the group."""

    def order(m):
        acc = m
        for k in range(1, len(elements) + 1):
            if acc == identity:
                return k
            acc = mul(acc, m)
        raise AssertionError("element order exceeds the group order")

    centre = [m for m in elements if all(mul(m, g) == mul(g, m) for g in gens)]
    return len(elements), len(centre), Counter(order(m) for m in elements)


def group_invariants() -> GroupInvariants:
    """Order, centre and element orders of the group generated by the two
    pair maps, realized exactly by their witnesses as projective 3x3 matrices
    over Q(w), and the same invariants of SL2(F3) by brute-force enumeration."""
    field = QQ_THETA
    gens = [_proj_normalize(sub.matrix, field) for _, sub in _pair_moves(field)]
    identity = LinearSub.identity(field, 3).matrix

    def mul(m, n):
        return _proj_normalize(mat_mul(m, n, field), field)

    moves = [lambda m, g=g: mul(m, g) for g in gens]
    elements = [m for _, m in _walk(identity, moves)]
    order, center_order, orders = _group_profile(elements, gens, mul, identity)

    sl2 = []
    for entries in itertools.product(range(3), repeat=4):
        a, b, c, d = entries
        if (a * d - b * c) % 3 == 1:
            sl2.append(((a, b), (c, d)))

    def mul2(m, n):
        return (
            (
                (m[0][0] * n[0][0] + m[0][1] * n[1][0]) % 3,
                (m[0][0] * n[0][1] + m[0][1] * n[1][1]) % 3,
            ),
            (
                (m[1][0] * n[0][0] + m[1][1] * n[1][0]) % 3,
                (m[1][0] * n[0][1] + m[1][1] * n[1][1]) % 3,
            ),
        )

    sl2_profile = _group_profile(sl2, sl2, mul2, ((1, 0), (0, 1)))
    return GroupInvariants(
        order=order,
        center_order=center_order,
        element_orders=dict(sorted(orders.items())),
        sl2_f3_order=sl2_profile[0],
        sl2_f3_center_order=sl2_profile[1],
        sl2_f3_element_orders=dict(sorted(sl2_profile[2].items())),
        matches_sl2_f3=(order, center_order, orders) == sl2_profile,
    )


# ---------------------------------------------------------------------------
# the isomorphism decision


@dataclass(frozen=True, slots=True)
class IsoDecision:
    isomorphic: bool
    reason: str
    witness: LinearSub = None


def are_isomorphic(t1: ParamTriple, t2: ParamTriple) -> IsoDecision:
    """Decide graded isomorphism of two Sklyanin algebras over the same field
    and, when they are isomorphic, return a verified substitution witness.

    The witness c2⁻¹ ∘ middle ∘ c1 joins the two classification witnesses
    through the identity, the x/y swap (reciprocal quantum parameters) or the
    orbit path between two generic pairs, and is checked once, at the exit."""
    if t1.field != t2.field:
        raise PreconditionViolatedError("triples over different fields")
    f = t1.field
    c1, c2 = classify(t1), classify(t2)
    trace = f"{c1.kind.value} vs {c2.kind.value}"
    if c1.kind != c2.kind:
        return IsoDecision(False, trace)

    if c1.kind is SklyaninKind.QUANTUM_POLY:
        if c1.alpha == c2.alpha:
            middle, reason = LinearSub.identity(f, 3), f"quantum parameters equal ({trace})"
        elif c1.alpha * c2.alpha == f.one:
            middle, reason = _triple_moves(f)[-1][1], f"quantum parameters reciprocal ({trace})"
        else:
            return IsoDecision(False, "quantum parameters neither equal nor reciprocal")
    elif c1.kind is SklyaninKind.GENERIC_M1:
        orbit = _orbit_edges(f, *c1.pair)
        if c2.pair not in orbit:
            return IsoDecision(False, "normalized pairs lie in different orbits")
        middle, reason = _path_witness(f, orbit, c2.pair, _pair_moves(f)), "normalized pairs lie in one orbit"
    else:
        middle, reason = LinearSub.identity(f, 3), f"both {c1.kind.value}"
    witness = c2.witness.inverse().compose(middle).compose(c1.witness)
    return IsoDecision(True, reason, _verified(witness, t1.presentation(), t2.presentation(), "isomorphism"))


# ---------------------------------------------------------------------------
# one-dimensional representations


def one_dimensional_representations(triple: ParamTriple):
    """Non-augmentation one-dimensional representations, decided exactly.

    The images (a, b, c) of the generators must satisfy (p+q)ab = -r c^2 and
    its two cyclic shifts.  Multiplying the three equations forces
    (abc)^2 ((p+q)^3 + r^3) = 0; the case split below returns an explicitly
    verified witness whenever a nonzero solution exists, and [] otherwise.
    """
    f = triple.field
    p, q, r = triple.p, triple.q, triple.r
    s = p + q

    def verify(w):
        a, b, c = w
        ok = (s * a * b == -r * c * c) and (s * b * c == -r * a * a) and (s * a * c == -r * b * b)
        if not ok:
            raise AssertionError("constructed representation fails the relations")
        return w

    if not r:
        if not s:
            return [verify((f.one, f.one, f.one))]
        return [verify((f.one, f.zero, f.zero))]
    if s**3 + r**3 == f.zero:
        return [verify((f.one, f.one, -r / s))]
    # abc = 0 now; r != 0 then kills the remaining coordinates pairwise
    return []
