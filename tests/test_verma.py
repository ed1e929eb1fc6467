import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kac_reference import brute_force_bicolored
from w3lab import modular, verma
from w3lab.exact import (B_SQUARED, C, ExactScalar, H, ONE, W, ZERO, scalar)
from w3lab.exact import PoleAtForbiddenCentralCharge
from w3lab.kac import kac_closed_form_exact
from w3lab.modular import rational_determinant
from w3lab.verma import (GramMatrix, ModeWord, OMEGA,
                         determinant, determinant_at, enumerate_basis,
                         gram_matrix, point_ring, SYMBOLIC, bracket, Engine)

L1 = ModeWord((1,), ())
L2 = ModeWord((2,), ())
W1 = ModeWord((), (1,))
W2 = ModeWord((), (2,))
L1W1 = ModeWord((1,), (1,))

INV_DEN = ExactScalar({(0, 0, 0): 1}, 1)  # 1/(22+5c)


def as_vec(word):
    return {word: ONE}


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

def test_enumerate_basis_level0():
    assert enumerate_basis(0) == [OMEGA]


def test_enumerate_basis_level1():
    assert [w.label() for w in enumerate_basis(1)] == ["L-1", "W-1"]


def test_enumerate_basis_level2():
    labels = [w.label() for w in enumerate_basis(2)]
    assert labels == ["L-2", "L-1 L-1", "L-1 W-1", "W-2", "W-1 W-1"]


def test_enumerate_basis_counts_match_p2():
    for n in range(7):
        assert len(enumerate_basis(n)) == brute_force_bicolored(n)


def test_enumerate_basis_rejects_a_negative_level():
    with pytest.raises(ValueError, match="level must be nonnegative"):
        enumerate_basis(-1)


def test_mode_word_validation():
    with pytest.raises(ValueError):
        ModeWord((2, 1), ())
    with pytest.raises(ValueError):
        ModeWord((), (0,))
    assert ModeWord.from_label("L-2 L-1 W-3") == ModeWord((1, 2), (3,))
    assert ModeWord.from_label("1") == OMEGA
    with pytest.raises(ValueError, match="negative mode index in 'L1'"):
        ModeWord.from_label("L1")
    with pytest.raises(ValueError, match="expected L or W with a negative mode index in 'Q-2'"):
        ModeWord.from_label("Q-2")


# ---------------------------------------------------------------------------
# apply_mode
# ---------------------------------------------------------------------------

def test_apply_l1_to_lminus1(engine):
    assert engine.apply_mode("L", 1, as_vec(L1)) == {OMEGA: scalar(2) * H}


def test_positive_modes_annihilate(engine):
    assert engine.apply_mode("L", 5, as_vec(OMEGA)) == {}
    assert engine.apply_mode("W", 3, as_vec(OMEGA)) == {}


def test_apply_l1_to_wminus1(engine):
    assert engine.apply_mode("L", 1, as_vec(W1)) == {OMEGA: scalar(3) * W}


def test_zero_modes_read_weights(engine):
    assert engine.apply_mode("L", 0, as_vec(OMEGA)) == {OMEGA: H}
    assert engine.apply_mode("W", 0, as_vec(OMEGA)) == {OMEGA: W}


def test_apply_mode_rejects_unknown_generator(engine):
    with pytest.raises(ValueError):
        engine.apply_mode("X", 0, as_vec(OMEGA))


def test_lambda_is_a_memoised_mode(monkeypatch):
    """Lambda_s on a word is rewritten once and kept in the engine's memo."""
    calls = []
    terms = verma.lambda_terms
    def counted(s, level):
        calls.append((s, level))
        return terms(s, level)
    monkeypatch.setattr(verma, "lambda_terms", counted)
    engine = Engine()
    first = engine.apply_mode("Lambda", 0, as_vec(OMEGA))
    assert engine.apply_mode("Lambda", 0, as_vec(OMEGA)) == first
    assert calls == [(0, 0)]
    assert ("Lambda", 0, OMEGA) in engine._memo
    # Lambda_0 Omega = (L_1 L_-1 + L_0^2 - (9/5) L_0) Omega
    assert first == {OMEGA: H * H + scalar(Fraction(1, 5)) * H}


def test_creation_keeps_words_ordered(engine):
    v = engine.apply_mode("L", -2, as_vec(L1))
    # L_{-2} L_{-1} O reorders to L_{-1} L_{-2} O plus the commutator term
    assert set(v) == {ModeWord((1, 2), ()), ModeWord((3,), ())}
    assert v[ModeWord((3,), ())] == scalar(-1)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def inner_product(engine, u: ModeWord, v: ModeWord):
    """<u Omega, v Omega> for the canonical form with <Omega, Omega> = 1.

    The left word is adjoined onto the right: its modes act with reversed
    order and negated indices, and the Omega-coefficient of the fully
    reduced vector is the value of the form, given as the ring's ``export``
    of it.  ``gram_matrix`` must give the same entries.
    """
    ring = engine.ring
    vec = {v: ring.one}
    for gen, modes in (("L", u.lpart), ("W", u.wpart)):
        for m in modes:
            vec = engine.apply_mode(gen, m, vec)
    return ring.export(vec.get(OMEGA, ring.zero))


def test_inner_product_normalization(engine):
    assert inner_product(engine, OMEGA, OMEGA) == ONE


def test_inner_product_level1(engine):
    assert inner_product(engine, L1, L1) == scalar(2) * H
    assert inner_product(engine, L1, W1) == scalar(3) * W
    # derived by hand from [W_1, W_-1] = 2 b^2 Lambda_0 - (1/5) L_0
    ww = inner_product(engine, W1, W1)
    expect = (scalar(32) * H * H + scalar(2) * H - C * H) * INV_DEN
    assert ww == expect


def test_inner_product_cross_level_vanishes(engine):
    assert inner_product(engine, L1, L2) == ZERO


def test_level2_hand_checked_entries(engine):
    # Virasoro block
    assert (inner_product(engine, L2, L2)
            == scalar(4) * H + C * scalar(Fraction(1, 2)))
    L11 = ModeWord((1, 1), ())
    assert inner_product(engine, L2, L11) == scalar(6) * H
    assert inner_product(engine, L11, L11) == scalar(8) * H * H + scalar(4) * H
    # W block, from [W_2, W_-2] = 4 b^2 Lambda_0 + (8/5) L_0
    expect = (scalar(64) * H * H + scalar(48) * H
              + scalar(8) * C * H) * INV_DEN
    assert inner_product(engine, W2, W2) == expect
    assert inner_product(engine, L2, W2) == scalar(6) * W
    # mixed, from L_1 W_-2 O = 4 W_-1 O
    expect = (scalar(128) * H * H + scalar(8) * H
              - scalar(4) * C * H) * INV_DEN
    assert inner_product(engine, L1W1, W2) == expect


def test_orthogonality_across_levels(engine):
    words = [w for lev in range(5) for w in enumerate_basis(lev)]
    rng = random.Random(5)
    pairs = [(u, v) for u in words for v in words if u.level != v.level]
    for u, v in rng.sample(pairs, 60):
        assert inner_product(engine, u, v) == ZERO


def test_w_parity_vanishes_at_w_zero(engine):
    rng = random.Random(17)
    words = [w for lev in range(5) for w in enumerate_basis(lev)]
    checked = 0
    for u in words:
        for v in words:
            if (len(u.wpart) + len(v.wpart)) % 2 == 1 and u.level == v.level:
                val = inner_product(engine, u, v)
                for _ in range(3):
                    cv = Fraction(rng.randint(3, 50))
                    hv = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
                    assert val.evaluate(cv, hv, 0) == 0
                checked += 1
    assert checked >= 10


def test_hermitian_symmetry(engine):
    words = [w for lev in range(4) for w in enumerate_basis(lev)]
    for u in words:
        for v in words:
            assert (inner_product(engine, u, v)
                    == inner_product(engine, v, u))


def _commutator_rhs(engine, g1, m, g2, n, vec):
    """RHS of the algebra relations applied to vec."""
    out = {}
    def acc(v, s):
        for word, coef in v.items():
            cur = out.get(word, ZERO) + coef * s
            if cur:
                out[word] = cur
            elif word in out:
                del out[word]
    if g1 == "L" and g2 == "L":
        acc(engine.apply_mode("L", m + n, vec), scalar(m - n))
        if m + n == 0:
            acc(vec, C * scalar(Fraction(m * (m * m - 1), 12)))
    elif g1 == "L" and g2 == "W":
        acc(engine.apply_mode("W", m + n, vec), scalar(2 * m - n))
    elif g1 == "W" and g2 == "L":
        acc(engine.apply_mode("W", m + n, vec), scalar(m - 2 * n))
    else:
        if m + n == 0:
            acc(vec, C * scalar(Fraction(m * (m * m - 1) * (m * m - 4), 360)))
        acc(engine.apply_mode("Lambda", m + n, vec),
            B_SQUARED * scalar(m - n))
        acc(engine.apply_mode("L", m + n, vec),
            scalar(Fraction((m - n) * (2 * m * m - m * n + 2 * n * n - 8), 30)))
    return out


def test_bracket_table_is_antisymmetric():
    """[X_m, Y_n] = -[Y_n, X_m] term by term, W/L against L/W included."""
    def table(g1, m, g2, n):
        out = {}
        for coef, kind, idx in bracket(g1, m, g2, n, SYMBOLIC):
            assert (kind, idx) not in out and coef
            out[kind, idx] = coef
        return out
    modes = range(-4, 5)
    for g1 in ("L", "W"):
        for g2 in ("L", "W"):
            for m in modes:
                for n in modes:
                    neg = {k: -v for k, v in table(g2, n, g1, m).items()}
                    assert table(g1, m, g2, n) == neg, (g1, m, g2, n)


def test_lambda_finite_ranges_are_complete(engine):
    """Widening the mode sums beyond the stated ranges changes nothing."""
    apply = engine.apply_mode
    for word in enumerate_basis(2) + enumerate_basis(3):
        lev = word.level
        for s in (-2, 0, 1, 3):
            tight = engine.apply_mode("Lambda", s, as_vec(word))
            wide = {}
            def acc(v, scale):
                for w2, c2 in v.items():
                    cur = wide.get(w2, ZERO) + c2 * scale
                    if cur:
                        wide[w2] = cur
                    elif w2 in wide:
                        del wide[w2]
            for k in range(-1, lev + 6):
                acc(apply("L", s - k, apply("L", k, as_vec(word))), ONE)
            for k in range(s - lev - 6, -1):
                acc(apply("L", k, apply("L", s - k, as_vec(word))), ONE)
            acc(apply("L", s, as_vec(word)),
                scalar(Fraction(-3 * (s + 2) * (s + 3), 10)))
            assert tight == wide


def test_jacobi_style_commutator_consistency(engine):
    """[X_m, Y_n] computed by double application equals the algebra RHS."""
    words = [w for lev in range(4) for w in enumerate_basis(lev)]
    apply = engine.apply_mode
    gens = ["L", "W"]
    for g1 in gens:
        for g2 in gens:
            for m in range(-3, 4):
                for n in range(-3, 4):
                    if g1 == g2 and m < n:
                        continue  # antisymmetry makes the other half redundant
                    for word in words:
                        vec = as_vec(word)
                        lhs = {}
                        for w2, c2 in apply(g2, n, vec).items():
                            for w3, c3 in apply(g1, m, {w2: ONE}).items():
                                cur = lhs.get(w3, ZERO) + c2 * c3
                                if cur:
                                    lhs[w3] = cur
                                elif w3 in lhs:
                                    del lhs[w3]
                        for w2, c2 in apply(g1, m, vec).items():
                            for w3, c3 in apply(g2, n, {w2: ONE}).items():
                                cur = lhs.get(w3, ZERO) - c2 * c3
                                if cur:
                                    lhs[w3] = cur
                                elif w3 in lhs:
                                    del lhs[w3]
                        rhs = _commutator_rhs(engine, g1, m, g2, n, vec)
                        assert lhs == rhs, (g1, m, g2, n, word.label())


# ---------------------------------------------------------------------------
# Gram matrices and determinants
# ---------------------------------------------------------------------------

def test_gram_level0(grams):
    assert grams[0].entries == [[ONE]]
    assert determinant(grams[0]) == ONE


def test_gram_level1_symbolic(grams):
    g = grams[1]
    assert [w.label() for w in g.basis] == ["L-1", "W-1"]
    assert g.entries[0][0] == scalar(2) * H
    assert g.entries[0][1] == scalar(3) * W
    assert g.entries[1][0] == scalar(3) * W


def test_gram_symmetric(grams):
    for g in grams.values():
        for i in range(g.dimension):
            for j in range(g.dimension):
                assert g.entries[i][j] == g.entries[j][i]


def test_gram_dimensions(grams):
    for n, g in grams.items():
        assert g.dimension == brute_force_bicolored(n)


def test_determinant_2x2_identity(grams):
    g = grams[1]
    x = g.entries[1][1]
    expect = scalar(2) * H * x - scalar(9) * W * W
    assert determinant(g) == expect


def test_determinant_level1_positive_inside_region(grams):
    val = determinant_at(grams[1], 3, Fraction(1, 24), 0)
    assert val > 0


def test_determinant_evaluation_matches_symbolic(grams):
    for n in (1, 2):
        sym = determinant(grams[n])
        for pt in [(3, Fraction(1, 24), 0), (10, 2, Fraction(1, 7)),
                   (50, 1, Fraction(-2, 3))]:
            assert determinant_at(grams[n], *pt) == sym.evaluate(*pt)


def _hand_gram(rows):
    """A GramMatrix over SYMBOLIC with hand-chosen entries."""
    return GramMatrix(0, [OMEGA] * len(rows),
                      [[x if isinstance(x, ExactScalar) else scalar(x)
                        for x in row] for row in rows])


def test_determinant_of_permutation_matrices():
    # the 3-cycle is even, the 4-cycle odd
    even = _hand_gram([[0, C, 0], [0, 0, H], [W, 0, 0]])
    assert determinant(even) == C * H * W
    odd = _hand_gram([[0, C, 0, 0], [0, 0, H, 0], [0, 0, 0, W],
                      [2, 0, 0, 0]])
    assert determinant(odd) == scalar(-2) * C * H * W


def test_determinant_with_zero_leading_entry():
    g = _hand_gram([[0, H, 1], [H, C, W], [1, W, B_SQUARED]])
    assert determinant(g) == (-B_SQUARED * H * H + scalar(2) * H * W - C)


def test_determinant_with_equal_rows_is_zero():
    row = [H, C, B_SQUARED]
    assert determinant(_hand_gram([row, [1, H, W], row])) == ZERO


# w = 0, 2 < c < 98; c > 98; c < 2 with negative w
POINTS = [(Fraction(3), Fraction(1, 24), Fraction(0)),
          (Fraction(150), Fraction(5), Fraction(1, 3)),
          (Fraction(1, 2), Fraction(3, 4), Fraction(-2, 5))]


def test_point_engine_matches_symbolic_evaluation(grams):
    symbolic = dict(grams)
    symbolic.update({n: gram_matrix(n) for n in (4, 5)})
    for n, g in symbolic.items():
        for pt in POINTS:
            at = gram_matrix(n, ring=point_ring(*pt))
            assert at.basis == g.basis
            assert at.entries == g.evaluate(*pt), (n, pt)


def test_evaluate_takes_each_mirrored_entry_once(grams, monkeypatch):
    calls = []
    real = ExactScalar.evaluate

    def counted(self, *pt):
        calls.append(self)
        return real(self, *pt)

    monkeypatch.setattr(ExactScalar, "evaluate", counted)
    values = grams[3].evaluate(*POINTS[1])
    d = grams[3].dimension
    assert d == 10
    assert len(calls) <= d * (d + 1) // 2
    monkeypatch.undo()
    assert values == [[e.evaluate(*POINTS[1]) for e in row]
                      for row in grams[3].entries]


def test_engine_memos_do_not_mix(grams):
    """Point, point, symbolic, point in a row: each is still right."""
    a, b = POINTS[0], POINTS[1]
    assert gram_matrix(3, ring=point_ring(*a)).entries == \
        grams[3].evaluate(*a)
    assert gram_matrix(3, ring=point_ring(*b)).entries == \
        grams[3].evaluate(*b)
    assert gram_matrix(3).entries == grams[3].entries
    assert gram_matrix(3, ring=point_ring(*a)).entries == \
        grams[3].evaluate(*a)


def _random_points(rng, count):
    """Rational points with negative c, c = 0, h = 0, w = 0 and large
    denominators among them."""
    def q():
        den = rng.choice([1, 2, 7, 12, 360, 10 ** 9 + 7, 2 ** 61 - 1])
        return Fraction(rng.randint(-50 * den, 50 * den), den)
    pts = [(Fraction(0), q(), q()), (q(), Fraction(0), q()),
           (q(), q(), Fraction(0)), (Fraction(-7, 3), q(), q())]
    pts += [(q(), q(), q()) for _ in range(count - len(pts))]
    return [p for p in pts if 22 + 5 * p[0]]


def test_point_ring_gram_matches_symbolic_at_random_points(grams):
    symbolic = dict(grams)
    symbolic[4] = gram_matrix(4)
    for pt in _random_points(random.Random(16), 8):
        for n in range(5):
            at = gram_matrix(n, ring=point_ring(*pt)).entries
            assert at == symbolic[n].evaluate(*pt), (n, pt)
            assert all(type(x) is Fraction for row in at for x in row)


def test_point_ring_lift():
    ring = point_ring(Fraction(225, 7), Fraction(21, 8), Fraction(5, 16))
    for q in (Fraction(-3, 10), Fraction(1, 360), 5, Fraction(5, 112)):
        assert ring.export(ring.lift(q)) == q
    # D = lcm(720, 7, 16, 1279), as b^2 = 112/1279: no 11 and no 2^5
    for q in (Fraction(1, 11), Fraction(1, 32)):
        with pytest.raises(ValueError):
            ring.lift(q)


def test_point_ring_rejects_pole():
    with pytest.raises(PoleAtForbiddenCentralCharge):
        point_ring(Fraction(-22, 5), 0, 0)


def _cofactor_det(m):
    """Reference determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_rational_determinant_against_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
              if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
             for _ in range(n)]
        assert rational_determinant([row[:] for row in m]) == _cofactor_det(m)
    # zero leading pivot forces a row swap; a zero column gives 0
    assert rational_determinant([[Fraction(0), Fraction(1, 2)],
                                 [Fraction(3), Fraction(1)]]) == Fraction(-3, 2)
    assert rational_determinant([[Fraction(0), Fraction(1)],
                                 [Fraction(0), Fraction(2)]]) == 0


def _unreduced_determinant(rows):
    """The route that keeps the content: each row scaled to integers by the
    lcm of its denominators, Bareiss over Z, divided by the scales."""
    scaled, scale = [], 1
    for row in rows:
        s = math.lcm(*(x.denominator for x in row))
        scaled.append([int(x * s) for x in row])
        scale *= s
    return Fraction(_bareiss_z(scaled) if scaled else 1, scale)


def _random_rational_matrix(rng, n):
    """Signed rationals whose rows and columns share factors, with a zero
    row or a zero column now and then."""
    cols = [rng.choice([1, 2, 6, 35, 2 ** 40]) for _ in range(n)]
    rows = [Fraction(rng.choice([1, 3, 10]), rng.choice([1, 4, 9]))
            for _ in range(n)]
    m = [[r * c * Fraction(rng.randint(-5, 5), rng.randint(1, 6))
          for c in cols] for r in rows]
    if n and rng.random() < 0.25:
        m[rng.randrange(n)] = [Fraction(0)] * n
    if n and rng.random() < 0.25:
        j = rng.randrange(n)
        for row in m:
            row[j] = Fraction(0)
    return m


def _random_symmetric_rational_matrix(rng, n):
    """D X D with X symmetric and signed and D diagonal, so the row and
    column scales differ from row to row; a zero row and column now and
    then."""
    d = [Fraction(rng.choice([1, 2, 6, 35, 2 ** 40]),
                  rng.choice([1, 3, 4, 9, 11])) for _ in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = d[i] * d[j] * Fraction(rng.randint(-5, 5),
                                                       rng.randint(1, 6))
    if n and rng.random() < 0.25:
        i = rng.randrange(n)
        m[i] = [Fraction(0)] * n
        for row in m:
            row[i] = Fraction(0)
    return m


@pytest.mark.parametrize("n", list(range(13)) + [modular.SYMMETRIC_MAX_N,
                                                 modular.SYMMETRIC_MAX_N + 1])
def test_rational_determinant_divides_out_the_content(n):
    """Dividing out the column and row gcds changes no determinant: against
    the route that keeps them, and cofactor expansion up to 6 rows, for
    general and symmetric matrices on both sides of the symmetric /
    multi-modular size rule."""
    rng = random.Random(n)
    for make in (_random_rational_matrix, _random_symmetric_rational_matrix):
        for trial in range(8 if n <= 12 else 2):
            m = make(rng, n)
            if n and trial == 0:
                m[-1] = [Fraction(0)] * n
            det = rational_determinant([row[:] for row in m])
            assert det == _unreduced_determinant(m)
            if 1 <= n <= 6:
                assert det == _cofactor_det(m)
            if n == 0:
                assert det == 1


def _methods_called(monkeypatch):
    """Record each call of the two integer methods, in order."""
    calls = []
    for name in ("symmetric_determinant", "multimodular_determinant"):
        def spy(*args, _name=name, _f=getattr(modular, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(modular, name, spy)
    return calls


@pytest.mark.parametrize("n", [modular.SYMMETRIC_MAX_N,
                               modular.SYMMETRIC_MAX_N + 1])
def test_rational_determinant_size_rule(n, monkeypatch):
    """A symmetric matrix goes to the symmetric kernel up to
    SYMMETRIC_MAX_N rows and to the multi-modular method above; a
    non-symmetric one goes to the multi-modular method at any size."""
    rng = random.Random(n)
    m = _random_symmetric_rational_matrix(rng, n)
    while rational_determinant(m) == 0:
        m = _random_symmetric_rational_matrix(rng, n)
    calls = _methods_called(monkeypatch)
    rational_determinant(m)
    assert calls == ["symmetric_determinant"
                     if n <= modular.SYMMETRIC_MAX_N
                     else "multimodular_determinant"]
    calls.clear()
    m[0][1] += 1
    rational_determinant(m)
    assert calls == ["multimodular_determinant"]


def _symmetric_rational(draw_entries, d, q):
    """The symmetric matrix with entry (i, j) = x_ij d_i d_j / (q_i q_j)."""
    n = len(d)
    m = [[Fraction(0)] * n for _ in range(n)]
    it = iter(draw_entries)
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = Fraction(next(it) * d[i] * d[j], q[i] * q[j])
    return m


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.just(0), st.integers(-2 ** 40, 2 ** 40)),
             min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2),
    st.lists(st.sampled_from([1, 2, 3, 10, 2 ** 30]), min_size=n,
             max_size=n),
    st.lists(st.integers(1, 97), min_size=n, max_size=n, unique=True))))
def test_symmetric_determinant_property(data):
    """Symmetric rational matrices with distinct row denominators, signed
    entries and zeros (so zero pivots, swaps and the fallback all occur):
    the kernel's determinant equals Bareiss over Z on the scaled rows."""
    m = _symmetric_rational(*data)
    assert rational_determinant([row[:] for row in m]) == \
        _unreduced_determinant(m)


# ---------------------------------------------------------------------------
# the recursive Gram build against the pairwise inner products
# ---------------------------------------------------------------------------

def _assert_matches_pairwise(level, ring, engine):
    """gram_matrix is symmetric and equals inner_product for j <= i."""
    g = gram_matrix(level, ring=ring)
    assert g.basis == enumerate_basis(level)
    for i, u in enumerate(g.basis):
        for j, v in enumerate(g.basis[:i + 1]):
            assert g.entries[i][j] == g.entries[j][i]
            assert g.entries[i][j] == inner_product(engine, u, v), \
                (level, u, v)


def test_recursive_gram_matches_pairwise_symbolic(engine):
    for n in range(6):
        _assert_matches_pairwise(n, SYMBOLIC, engine)


@pytest.mark.parametrize("pt", [POINTS[0], POINTS[1]])
def test_recursive_gram_matches_pairwise_at_a_point(pt):
    ring = point_ring(*pt)
    pairwise = Engine(ring)
    for n in range(7):
        _assert_matches_pairwise(n, ring, pairwise)


# ---------------------------------------------------------------------------
# the multi-modular determinant against Bareiss over Z
# ---------------------------------------------------------------------------

def _bareiss_z(m):
    """Determinant over Z by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _symmetric_kernel(m):
    """The symmetric kernel with unit ratios; None unless m is symmetric."""
    if all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i)):
        return modular.symmetric_determinant(m, [1] * len(m))
    return None


# both integer methods, each on the matrices it takes
DETERMINANTS = (_symmetric_kernel, modular.multimodular_determinant)


def _det(m):
    """The determinant every method gives; they must all agree."""
    values = {f(m) for f in DETERMINANTS} - {None}
    assert len(values) == 1, (m, values)
    return values.pop()


def _check_integer_determinant(m):
    assert _det(m) == _bareiss_z(m), m


def test_multimodular_determinant_refuses_more_than_2_15_rows(monkeypatch):
    """Above 2^15 rows the int64 elimination could overflow: the matrix is
    refused before any prime is drawn or any limb is built."""
    def never(*args):
        raise AssertionError("built before the row check")
    monkeypatch.setattr(modular, "primes", never)
    with pytest.raises(ValueError, match="at most 2\\^15 rows"):
        modular.multimodular_determinant([[]] * (2 ** 15 + 1))


def _random_integer_matrix(rng, n):
    bound = rng.choice([1, 3, 2 ** 31, 2 ** 100, 2 ** 600])
    return [[rng.randint(-bound, bound) if rng.random() < 0.8 else 0
             for _ in range(n)] for _ in range(n)]


def _symmetrized(m):
    return [[x + y for x, y in zip(row, col)] for row, col in zip(m, zip(*m))]


def test_integer_determinant_random_matrices():
    rng = random.Random(5)
    for _ in range(150):
        m = _random_integer_matrix(rng, rng.randint(1, 12))
        _check_integer_determinant(m)
        _check_integer_determinant(_symmetrized(m))


def test_determinant_methods_against_cofactor_expansion():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(5):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert _det(m) == _cofactor_det(m), m


@pytest.mark.parametrize("n", [modular.SYMMETRIC_MAX_N,
                               modular.SYMMETRIC_MAX_N + 1])
def test_determinant_methods_at_the_size_rule(n):
    """Symmetric matrices on both sides of SYMMETRIC_MAX_N: the two methods
    agree (Bareiss over Z takes seconds at this size)."""
    rng = random.Random(n)
    assert _det(_symmetrized(_random_integer_matrix(rng, n))) != 0
    singular = _symmetrized(_random_integer_matrix(rng, n))
    singular[-1] = [2 * x - y for x, y in zip(singular[0], singular[1])]
    for row in singular:
        row[-1] = 2 * row[0] - row[1]
    assert _symmetric_kernel(singular) is not None
    assert _det(singular) == 0
    # a zero pivot at every step: the anti-diagonal permutation
    flip = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
    assert _det(flip) == (-1) ** (n * (n - 1) // 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_integer_determinant_property(m):
    _check_integer_determinant(m)


def test_integer_determinant_cases():
    p = int(modular.primes(1)[0])
    q = int(modular.primes(10)[-1])
    # singular: a repeated row, a zero row, a zero column
    assert _det([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == 0
    assert _det([[0, 0], [7, 1]]) == 0
    assert _det([[0, 5], [0, 9]]) == 0
    # negative determinants, small and past one chunk of primes
    assert _det([[0, 1], [1, 0]]) == -1
    big = [[0, 2 ** 700], [3 ** 500, 1]]
    assert _det(big) == -(2 ** 700) * 3 ** 500
    # the first column vanishes modulo the first prime only
    assert _det([[p, 1], [2 * p, 3]]) == p
    _check_integer_determinant([[p, 1, 0], [3 * p, 1, 1], [5 * p, 0, 2]])
    # the pivot is 0 modulo the first prime only, so only it swaps rows
    assert _det([[p, 1], [1, 1]]) == p - 1
    # zero leading pivots force row swaps for every prime
    _check_integer_determinant([[0, 1, 2], [0, 3, 4], [5, 6, 7]])
    _check_integer_determinant([[0, 0, 1], [0, 2, 3], [4, 5, 6]])
    # 0 x 0 and 1 x 1
    assert _det([]) == 1
    assert _det([[-5]]) == -5
    assert _det([[0]]) == 0
    assert _det([[-(2 ** 300)]]) == -(2 ** 300)
    # |det| above the product of the first ten primes
    product = 1
    for r in modular.primes(10).tolist():
        product *= r
    m = [[q ** 4, 1, 0], [2, q ** 4, 5], [1, 1, q ** 3]]
    assert abs(_bareiss_z(m)) > product
    _check_integer_determinant(m)


def test_symmetric_determinant_cases(monkeypatch):
    calls = _methods_called(monkeypatch)

    def det(m, ratios=None, fallback=False):
        calls.clear()
        d = modular.symmetric_determinant(m, ratios or [1] * len(m))
        assert calls == (["symmetric_determinant"]
                         + ["multimodular_determinant"] * fallback), m
        return d

    # 0 x 0 and 1 x 1
    assert det([]) == 1
    assert det([[-7]]) == -7
    assert det([[0]]) == 0
    # a negative determinant
    assert det([[2, 3], [3, 1]]) == -7
    # a zero leading minor: a symmetric swap at the first step
    assert det([[0, 1, 2], [1, 3, 4], [2, 4, 5]]) == -1
    # the last pivot (step n - 2) divides nothing, so a zero one is kept:
    # no swap, and no fallback with no nonzero diagonal entry left
    assert det([[1, 1, 2], [1, 1, 3], [2, 3, 5]]) == -1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 1, 2], [1, 1, 3], [2, 3, 4]]) == -1
    # singular, with no numpy: a repeated row and column, a zero row and
    # column, a rank-1 matrix whose trailing block is all zero, and a zero
    # row of the trailing block at the second of three steps
    assert det([[1, 2, 1], [2, 5, 2], [1, 2, 1]]) == 0
    assert det([[0, 0, 0], [0, 2, 1], [0, 1, 3]]) == 0
    assert det([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == 0
    assert det([[1, 2, 3, 4], [2, 4, 6, 8], [3, 6, 10, 1], [4, 8, 1, 7]]) == 0
    # a zero row k gives 0 before any search, even with a hollow rest
    assert det([[0, 0, 0], [0, 0, 1], [0, 1, 0]]) == 0
    # a hollow trailing block of 3 or more rows: the multi-modular
    # fallback, at the first step and at the second
    hollow = [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]]
    assert det(hollow, fallback=True) == _cofactor_det(hollow) == -224
    hollow = [[1, 1, 2, 3], [1, 1, 5, 6], [2, 5, 4, 7], [3, 6, 7, 9]]
    assert det(hollow, fallback=True) == _cofactor_det(hollow) == 18
    # a swap with scales that differ: m = R G C for G = [[0, 1, 2], [1, 0,
    # 1], [2, 1, 1]], R = diag(1, 6, 5), C = diag(3, 2, 7): m[j][i] =
    # m[i][j] * ratios[j] / ratios[i] with ratios = R / C = (1/3, 3, 5/7)
    g = [[0, 1, 2], [1, 0, 1], [2, 1, 1]]
    r, c = [1, 6, 5], [3, 2, 7]
    m = [[r[i] * g[i][j] * c[j] for j in range(3)] for i in range(3)]
    ratios = [Fraction(x, y) for x, y in zip(r, c)]
    assert det(m, ratios) == _cofactor_det(m) == 3 * (1 * 6 * 5) * (3 * 2 * 7)
    # the same at the second of three steps: the leading 2 x 2 minor of G
    # vanishes, and the scales keep the rows in their order
    g = [[1, 1, 1, 1], [1, 1, 2, 1], [1, 2, 3, 2], [1, 1, 2, 5]]
    r, c = [1, 2, 3, 4], [2, 1, 1, 3]
    m = [[r[i] * g[i][j] * c[j] for j in range(4)] for i in range(4)]
    ratios = [Fraction(x, y) for x, y in zip(r, c)]
    assert det(m, ratios) == _cofactor_det(m) == -4 * (1 * 2 * 3 * 4) * 6
    # a rational Gram-like matrix whose second pivot, the last, vanishes
    calls.clear()
    q = [[Fraction(1, 2), Fraction(1, 6), Fraction(2, 7)],
         [Fraction(1, 6), Fraction(1, 18), Fraction(3, 5)],
         [Fraction(2, 7), Fraction(3, 5), Fraction(-4, 11)]]
    assert rational_determinant(q) == _cofactor_det(q)
    assert calls == ["symmetric_determinant"]
    # a non-symmetric input goes to the multi-modular method
    calls.clear()
    assert rational_determinant([[Fraction(1), Fraction(2)],
                                 [Fraction(3), Fraction(4)]]) == -2
    assert calls == ["multimodular_determinant"]


# The paper's special points, where Grams have zero pivots: the vacuum
# line h = 0, minimal-model and Kac-curve central charges, and F4's point
SPECIAL_POINTS = [(Fraction(c), Fraction(h), Fraction(w))
                  for c in (50, 2, 0, 98, "353/7", -2, "4/5", 1, "25/3")
                  for h in (0, "1/3", 1, "23/4") for w in (0, 1, "-2/7")]
SPECIAL_POINTS.append((Fraction(50), Fraction(23, 4), Fraction(23, 12)))

# det(Gram_N) / closed form at levels 1-4
KAC_CONSTANTS = {1: 9, 2: 104976, 3: 650717652052224,
                 4: 1638617745884520252808573732018364350464}


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_special_point_grams_need_no_fallback(level, monkeypatch):
    """At each special point the Gram determinant equals Bareiss over Z on
    the scaled rows and C_N times the closed form, and the symmetric kernel
    takes every Gram with no multi-modular fallback (levels 5 and 6 give
    the same; they take too long for the suite)."""
    calls = _methods_called(monkeypatch)
    for pt in SPECIAL_POINTS:
        g = gram_matrix(level, point_ring(*pt)).entries
        assert rational_determinant(g) == _unreduced_determinant(g) == \
            KAC_CONSTANTS[level] * kac_closed_form_exact(level, *pt), pt
    # a Gram with a zero row (at h = w = 0) is 0 before any kernel is called
    assert set(calls) == {"symmetric_determinant"}


def test_primes_are_distinct_primes_below_2_24():
    primes = modular.primes(3000).tolist()
    assert len(set(primes)) == 3000
    assert primes == sorted(primes, reverse=True)
    assert all(2 ** 23 < r < 2 ** 24 for r in primes)
    for r in primes[:50] + primes[-50:]:
        assert all(r % d for d in range(2, int(r ** 0.5) + 1))


def test_primes_end_at_2_23():
    """Block 127 is the last whose primes lie above 2^23."""
    assert modular._prime_block(127).min() > 2 ** 23
    with pytest.raises(OverflowError, match="ran out of primes"):
        modular._prime_block(128)


def test_rational_determinant_of_point_grams_matches_bareiss():
    for pt in POINTS:
        for n in (3, 5):
            rows = gram_matrix(n, ring=point_ring(*pt)).entries
            assert rational_determinant(rows) == _unreduced_determinant(rows)


def test_point_grams_take_the_symmetric_kernel(monkeypatch):
    """At levels 1-6 (at most SYMMETRIC_MAX_N rows) the point Gram's
    determinant comes from the symmetric kernel alone and equals the
    multi-modular determinant of its scaled rows."""
    multimodular = modular.multimodular_determinant
    calls = _methods_called(monkeypatch)
    for pt in POINTS:
        for n in range(1, 7):
            rows = gram_matrix(n, ring=point_ring(*pt)).entries
            assert len(rows) <= modular.SYMMETRIC_MAX_N
            calls.clear()
            det = rational_determinant(rows)
            assert calls == ["symmetric_determinant"], (pt, n)
            scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
            assert det == Fraction(multimodular(
                [[int(x * s) for x in row] for row, s in zip(rows, scales)]),
                math.prod(scales))


def test_gram_matrix_builds_any_level():
    # the level cap is the CLI's budget on its input, not the library's
    g = gram_matrix(7, ring=point_ring(10, 2, 0))
    assert g.dimension == len(g.entries) == 110


def test_gram_json_round_trip(grams):
    for n in (0, 1, 2):
        g = grams[n]
        back = GramMatrix.from_json(g.to_json())
        assert back.level == g.level
        assert back.basis == g.basis
        assert back.entries == g.entries
        # deterministic serialization
        assert back.to_json() == g.to_json()


def test_gram_level1_golden_json(grams):
    expect = (
        '{\n  "level": 1,\n  "basis": [\n    "L-1",\n    "W-1"\n  ],\n'
        '  "entries": [\n    [\n      "2*h",\n      "3*w"\n    ],\n'
        '    [\n      "3*w",\n      "(-c*h + 32*h^2 + 2*h)/(22+5c)^1"\n    ]\n'
        '  ]\n}'
    )
    assert grams[1].to_json() == expect


def test_payload_formats_each_mirrored_entry_once(grams):
    """``gram_matrix`` puts one object at (i, j) and (j, i), so the payload
    formats at most n(n+1)/2 entries, each distinct object once."""
    formatted = []

    class Counted:
        def __init__(self, entry):
            self.entry = entry

        def __str__(self):
            formatted.append(self)
            return str(self.entry)

    g = grams[3]
    wrapped = {}
    entries = [[wrapped.setdefault(id(e), Counted(e)) for e in row]
               for row in g.entries]
    payload = GramMatrix(g.level, g.basis, entries).payload()
    assert payload["entries"] == [[str(e) for e in row] for row in g.entries]
    n = g.dimension
    assert len(formatted) == len(wrapped) <= n * (n + 1) // 2
