"""Unit tests for the moment-inversion tail estimators.

The reference recurrence tables (oracles.build_tables) are validated from
first principles: the polynomials rebuilt from the B rows must be
orthogonal for the weight (1-t^2)^a with the exact norms h0 eta_j, evaluate
to 1 at t = 1, and have partial weight integrals q1 g_j.  The served tail
coefficients are then cross-checked against an independent assembly from
those tables, and float mode against correct rounding of the exact result.
"""

import gc
import hashlib
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import sepprob.inversion as inversion
import sepprob.moments as moments
from oracles import build_tables, tail_coeffs_from_tables, value_and_slope
from sepprob.errors import DomainError
from sepprob.exactnum import pochhammer
from sepprob.inversion import MODE_AUTO, MODE_EXACT, MODE_FLOAT, \
    gegenbauer_tail, legendre_tail
from sepprob.moments import DIFF_INTERVAL, PT_INTERVAL, MomentSequence, \
    Scenario, Variable, moment_sequence

HALF = Fraction(1, 2)


def monomial_coeffs(row, c0):
    """Convert a Taylor row around c0 into plain t-monomial coefficients."""
    out = [Fraction(0)] * len(row)
    for i, b in enumerate(row):
        for r in range(i + 1):
            out[r] += b * math.comb(i, r) * (-c0) ** (i - r)
    return out


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def weight_integral(coeffs, a):
    """integral of poly(t) (1-t^2)^a over [-1, 1], exactly."""
    total = Fraction(0)
    for r, c in enumerate(coeffs):
        if r % 2 or c == 0:
            continue
        total += c * sum(Fraction(math.comb(a, s) * (-1) ** s * 2,
                                  r + 2 * s + 1) for s in range(a + 1))
    return total


def partial_weight_integral(coeffs, a, zeta):
    """integral of poly(t) (1-t^2)^a over [zeta, 1], exactly."""
    total = Fraction(0)
    for r, c in enumerate(coeffs):
        if c == 0:
            continue
        total += c * sum(Fraction(math.comb(a, s) * (-1) ** s, r + 2 * s + 1)
                         * (1 - zeta ** (r + 2 * s + 1))
                         for s in range(a + 1))
    return total


def test_interval_map_constants():
    pt = build_tables(PT_INTERVAL, 0, 1)
    assert (pt.c0, pt.c1) == (Fraction(15, 17), Fraction(512, 17))
    diff = build_tables(DIFF_INTERVAL, 0, 1)
    assert (diff.c0, diff.c1) == (Fraction(13, 14), Fraction(216, 7))


def test_tables_shape():
    t = build_tables(PT_INTERVAL, 2, 7)
    assert len(t.B) == 8 and len(t.B[5]) == 6
    assert len(t.eta) == 8 and t.eta[0] == 1
    assert len(t.g) == 7 and t.g[0] == 1 and t.g[1] == t.c0
    t0 = build_tables(PT_INTERVAL, 0, 0)
    assert t0.B == ((Fraction(1),),) and t0.g == ()


def test_polynomials_normalized_at_one():
    for a in (0, 1, 3):
        t = build_tables(PT_INTERVAL, a, 12)
        for row in t.B:
            assert sum(b * (1 - t.c0) ** i for i, b in enumerate(row)) == 1


def test_orthogonality_and_norms():
    # the defining property of the tables, checked by exact integration
    for a in (0, 1, 2):
        t = build_tables(PT_INTERVAL, a, 6)
        h0 = math.factorial(a) / pochhammer(HALF, a + 1)
        polys = [monomial_coeffs(row, t.c0) for row in t.B]
        for i in range(7):
            for j in range(i, 7):
                integral = weight_integral(poly_mul(polys[i], polys[j]), a)
                if i == j:
                    assert integral == h0 * t.eta[i]
                else:
                    assert integral == 0


def test_same_polynomials_on_both_intervals():
    # B rows depend on the interval only through the expansion point
    pt = build_tables(PT_INTERVAL, 1, 8)
    diff = build_tables(DIFF_INTERVAL, 1, 8)
    for j in range(9):
        assert monomial_coeffs(pt.B[j], pt.c0) == \
            monomial_coeffs(diff.B[j], diff.c0)


def test_partial_integrals_match_g():
    for interval in (PT_INTERVAL, DIFF_INTERVAL):
        for a in (0, 1, 2):
            for xi in (0, Fraction(-1, 32), interval[1]):
                t = build_tables(interval, a, 6, xi)
                zeta = t.zeta
                q1 = (1 - zeta * zeta) ** (a + 1) / (2 * (a + 1))
                for j in range(1, 7):
                    poly = monomial_coeffs(t.B[j], t.c0)
                    assert partial_weight_integral(poly, a, zeta) == \
                        q1 * t.g[j - 1]


def test_build_tables_validation():
    with pytest.raises(DomainError):
        build_tables(PT_INTERVAL, -1, 3)
    with pytest.raises(DomainError):
        build_tables(PT_INTERVAL, True, 3)
    with pytest.raises(DomainError):
        build_tables(PT_INTERVAL, 0, -1)
    with pytest.raises(DomainError):
        build_tables((Fraction(1), Fraction(1)), 0, 3)


def test_exact_coeffs_match_table_assembly():
    # the streamed scaled-integer evaluator against the direct formula
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 40)
    dseq = moment_sequence(Scenario(Variable.DIFF, Fraction(1), Fraction(0)), 40)
    for moments, interval in ((seq, PT_INTERVAL), (dseq, DIFF_INTERVAL)):
        for a in (0, 2):
            for m in (0, 1, 13, 40):
                est = gegenbauer_tail(moments, a, 0, m, mode=MODE_EXACT)
                expect = tail_coeffs_from_tables(build_tables(interval, a, m))
                assert est.coeffs == expect
                assert est.value == sum(
                    A * mu for A, mu in zip(expect, moments.mu))


def test_coeffs_do_not_depend_on_the_moments():
    a_seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 25)
    b_seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(3, 2), Fraction(2)), 25)
    ea = gegenbauer_tail(a_seq, 0, 0, 25)
    eb = gegenbauer_tail(b_seq, 0, 0, 25)
    assert ea.coeffs == eb.coeffs
    assert ea.value != eb.value


def test_truncation_order_zero_baselines():
    pt = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 0)
    diff = moment_sequence(Scenario(Variable.DIFF, Fraction(1), Fraction(0)), 0)
    assert legendre_tail(pt, 0, 0).value == Fraction(1, 17)
    assert legendre_tail(diff, 0, 0).value == Fraction(1, 28)


def test_endpoint_tails_are_exact():
    for variable, interval in ((Variable.PT_DET, PT_INTERVAL),
                               (Variable.DIFF, DIFF_INTERVAL)):
        seq = moment_sequence(Scenario(variable, Fraction(1), Fraction(0)), 30)
        lo, hi = interval
        for a in (0, 2):
            for m in (0, 1, 2, 9, 30):
                assert gegenbauer_tail(seq, a, lo, m).value == 1
                assert gegenbauer_tail(seq, a, hi, m).value == 0


def test_legendre_is_weight_zero_gegenbauer():
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 30)
    for m in (0, 11, 30):
        leg = legendre_tail(seq, 0, m)
        geg = gegenbauer_tail(seq, 0, 0, m)
        assert leg == geg
        assert leg.coeffs == geg.coeffs
        assert leg.alpha_w == 0


def test_per_order_memo_serves_orders_in_any_sequence():
    # orders out of sequence and repeated: each is its own pass, checked
    # against the oracle, and a repeat returns the vector kept for it
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 30)
    for m in (30, 10, 20, 30):
        coeffs = gegenbauer_tail(seq, 1, 0, m).coeffs
        assert coeffs == tail_coeffs_from_tables(build_tables(PT_INTERVAL, 1, m))
        assert gegenbauer_tail(seq, 1, 0, m).coeffs is coeffs


def test_interior_cut_points_match_table_assembly():
    # zeta != c0: A_i = c1^i sum_{j>=i} (q_j / h_j) B[j][i], with q_j the
    # partial weight integral of row j over [zeta, 1]
    cases = ((Variable.PT_DET, PT_INTERVAL, Fraction(-1, 32)),
             (Variable.DIFF, DIFF_INTERVAL, Fraction(1, 1000)))
    for variable, interval, xi in cases:
        seq = moment_sequence(Scenario(variable, Fraction(1), Fraction(0)), 25)
        for a in (0, 1, 2, 3):
            t = build_tables(interval, a, 25)
            zeta = t.c0 + t.c1 * xi
            h0 = weight_integral([Fraction(1)], a)
            w = [partial_weight_integral(monomial_coeffs(row, t.c0), a, zeta)
                 / (h0 * eta) for row, eta in zip(t.B, t.eta)]
            for m in (0, 1, 2, 3, 25):
                expect = tuple(t.c1 ** i * sum(w[j] * t.B[j][i]
                                               for j in range(i, m + 1))
                               for i in range(m + 1))
                est = gegenbauer_tail(seq, a, xi, m, mode=MODE_EXACT)
                assert est.coeffs == expect
                assert est.value == sum(A * mu for A, mu in
                                        zip(expect, seq.mu))


def test_dot_product_matches_fraction_sum():
    # the Horner sum over the running moment scale at high orders, on
    # prefixes of a longer sequence, against the Fraction sum of A_i mu_i
    for variable in Variable:
        s = Scenario(variable, Fraction(3, 2), Fraction(1))
        seq = moment_sequence(s, 300)
        for a in (0, 2):
            for xi in (0, s.interval[0] / 4):
                for m in (2, 3, 150, 300):
                    est = gegenbauer_tail(seq, a, xi, m, mode=MODE_EXACT)
                    assert est.value == sum(A * mu for A, mu in
                                            zip(est.coeffs, seq.mu))


def test_fresh_tail_builds_no_fraction_per_order(monkeypatch):
    # a cold moment_sequence and legendre_tail build as many Fractions at
    # order 400 as at order 100 (set-up and seeds only), and no mu
    make = Fraction.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return make(cls, *args, **kwargs)

    counts = []
    for m, k in ((100, Fraction(13, 2)), (400, Fraction(15, 2))):
        s = Scenario(Variable.PT_DET, Fraction(5, 2), k)
        moment_sequence(s, 1)           # the alpha's table is read
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counted)
        seq = moment_sequence(s, m)
        legendre_tail(seq, 0, m, mode=MODE_EXACT)
        monkeypatch.undo()
        counts.append(len(built))
        assert "mu" not in vars(seq)
    assert counts[0] == counts[1]


def test_sequence_from_fractions_gives_the_same_tail():
    # the Fractions over a scale with a spare factor 3 per order, and a
    # stand-in scenario that carries only the interval
    s = Scenario(Variable.DIFF, Fraction(2), Fraction(3))
    served = moment_sequence(s, 60)
    nums, steps = moments._rescale(served.mu)
    nums = tuple(num * 3 ** (n + 1) for n, num in enumerate(nums))
    steps = tuple(3 * step for step in steps)
    built = MomentSequence(s, nums, steps)
    assert built.mu == served.mu and built.steps != served.steps
    stand_in = MomentSequence(SimpleNamespace(interval=DIFF_INTERVAL),
                              nums, steps)
    for a in (0, 2):
        for xi in (0, Fraction(-1, 50)):
            for m in (0, 5, 60):
                value = gegenbauer_tail(served, a, xi, m, mode=MODE_EXACT).value
                assert gegenbauer_tail(built, a, xi, m,
                                       mode=MODE_EXACT).value == value
                assert gegenbauer_tail(stand_in, a, xi, m,
                                       mode=MODE_EXACT).value == value


def bank(interval, a, xi, m):
    """gegenbauer_tail's A_0..A_m on any interval.  They do not depend on
    the moments, so a stand-in sequence carries the interval."""
    seq = MomentSequence(SimpleNamespace(interval=interval),
                         (1,) * (m + 1), (1,) * (m + 1))
    return gegenbauer_tail(seq, a, xi, m, mode=MODE_EXACT).coeffs


@st.composite
def cut_points(draw):
    ends = st.fractions(min_value=-4, max_value=4, max_denominator=60)
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=30))
    return (lo, hi), lo + (hi - lo) * t


@settings(max_examples=60, deadline=None)
@given(cut_points(), st.integers(0, 4), st.integers(0, 30))
# symmetric intervals have c0 = 0
@example(((-HALF, HALF), 0), 0, 12)
@example(((-HALF, HALF), 0), 2, 12)
@example(((-HALF, HALF), Fraction(1, 5)), 0, 12)
@example(((-HALF, HALF), Fraction(1, 5)), 2, 12)
@example(((Fraction(-3), Fraction(3)), 0), 0, 12)
@example(((Fraction(-3), Fraction(3)), 0), 2, 12)
@example(((Fraction(-3), Fraction(3)), Fraction(-7, 4)), 0, 12)
@example(((Fraction(-3), Fraction(3)), Fraction(-7, 4)), 2, 12)
# c0 = -1, c0 = 1 and |c0| > 1, each with xi at an end and inside
@example(((Fraction(0), HALF), 0), 0, 12)
@example(((Fraction(0), HALF), 0), 2, 12)
@example(((Fraction(0), HALF), Fraction(1, 5)), 0, 12)
@example(((Fraction(0), HALF), Fraction(1, 5)), 2, 12)
@example(((Fraction(-3), Fraction(0)), 0), 0, 12)
@example(((Fraction(-3), Fraction(0)), 0), 2, 12)
@example(((Fraction(-3), Fraction(0)), Fraction(-7, 4)), 0, 12)
@example(((Fraction(-3), Fraction(0)), Fraction(-7, 4)), 2, 12)
@example(((Fraction(1, 5), Fraction(3, 2)), Fraction(3, 2)), 0, 12)
@example(((Fraction(1, 5), Fraction(3, 2)), Fraction(3, 2)), 2, 12)
@example(((Fraction(1, 5), Fraction(3, 2)), HALF), 0, 12)
@example(((Fraction(1, 5), Fraction(3, 2)), HALF), 2, 12)
def test_bank_matches_table_assembly_on_random_intervals(case, a, m):
    interval, xi = case
    assert bank(interval, a, xi, m) == \
        tail_coeffs_from_tables(build_tables(interval, a, m, xi))


@st.composite
def integer_frames(draw):
    # l < h and l <= x <= h: a rational interval and cut point scaled to
    # integers by the lcm of their denominators, as _emit scales them.  An
    # end at 0 is c0 = -1 or c0 = 1, and the cut point falls on either end
    # as often as inside
    ends = st.one_of(st.just(Fraction(0)), st.fractions(
        min_value=-4, max_value=4, max_denominator=60))
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    t = draw(st.one_of(st.sampled_from([Fraction(0), Fraction(1)]),
                       st.fractions(min_value=0, max_value=1,
                                    max_denominator=30)))
    xi = lo + (hi - lo) * t
    z = math.lcm(lo.denominator, hi.denominator, xi.denominator)
    return int(lo * z), int(hi * z), int(xi * z)


@settings(max_examples=150, deadline=None)
@given(integer_frames(), st.integers(0, 4), st.integers(0, 60))
@example((-16, 1, 0), 0, 60)        # pt at xi = 0, z = 256
@example((-16, 1, -16), 3, 60)      # pt at its lower end
@example((-16, 1, 1), 4, 60)        # pt at its upper end
@example((0, 5, 0), 2, 0)           # c0 = -1, cut at either end
@example((0, 5, 5), 2, 1)
@example((-7, 0, 0), 1, 2)          # c0 = 1
@example((-7, 0, -7), 1, 2)
def test_cut_values_match_horner_over_rows(frame, a, m):
    # the degree recurrence's p_m, p_m', p_{m+1}, p_{m+1}' at x equal the
    # Horner sums over the Taylor rows of P_m and P_{m+1}
    l, h, x = frame
    assert inversion._at_cut(m, a, l, h, x)[:4] == \
        value_and_slope(inversion._taylor(m, a, l, h, 1, 0), x) \
        + value_and_slope(inversion._taylor(m + 1, a, l, h, 1, 0), x)


def sum_at_one(frame, a, m):
    """S(1) = sum_{j<=m} c_j as _emit forms it from _at_cut's T:
    (q0 + q1 (a+1) T L / ((2a+1) C(2a, a) L^m)) / h0, on the integer
    frame l < h, cut point x, where zeta = (2 x - l - h) / L."""
    l, h, x = frame
    big_l = h - l
    zeta = Fraction(2 * x - l - h, big_l)
    total, scale = inversion._at_cut(m, a, l, h, x)[4:]
    return (inversion._q0(a, zeta) + inversion._q1(a, zeta) * (a + 1)
            * Fraction(total, scale) * big_l / (
                (2 * a + 1) * math.comb(2 * a, a) * big_l ** m)
            ) / inversion._h0(a)


@settings(max_examples=150, deadline=None)
@given(integer_frames(), st.integers(0, 80))
@example((-16, 1, 0), 80)           # pt at xi = 0, z = 256
@example((0, 5, 0), 0)              # c0 = -1, cut at either end
@example((0, 5, 5), 1)
@example((-7, 0, -7), 2)            # c0 = 1
def test_legendre_sum_at_one_telescopes(frame, m):
    # at w = 0, (1-t^2) P_j' = j (j+1) / (2j+1) (P_{j-1} - P_{j+1}) makes
    # c_j = (P_{j-1}(zeta) - P_{j+1}(zeta)) / 2 for j >= 1, so the sum
    # telescopes to S(1) = 1 - (P_m(zeta) + P_{m+1}(zeta)) / 2, where
    # P_n(zeta) = p_n / L^n
    l, h, x = frame
    big_l = h - l
    pm, _, pp = inversion._at_cut(m, 0, l, h, x)[:3]
    assert sum_at_one(frame, 0, m) == \
        1 - (Fraction(pm, big_l ** m) + Fraction(pp, big_l ** (m + 1))) / 2


@settings(max_examples=60, deadline=None)
@given(integer_frames(), st.integers(1, 4), st.integers(0, 25))
@example((-16, 1, 0), 4, 25)
@example((0, 5, 5), 1, 3)
def test_weighted_sum_at_one_matches_table_assembly(frame, a, m):
    # S(1) = sum_i A_i h^i of the oracle's bank, since x' = h is t = 1
    l, h, x = frame
    coeffs = tail_coeffs_from_tables(
        build_tables((Fraction(l), Fraction(h)), a, m, x))
    assert sum_at_one(frame, a, m) == sum(A * h ** i
                                          for i, A in enumerate(coeffs))


@pytest.mark.parametrize("l, h", [(-16, 1), (-3, 5), (0, 2), (-7, 0)])
@pytest.mark.parametrize("a", [0, 1, 3])
def test_taylor_rows_are_the_jacobi_sum(l, h, a):
    # e_n L^n P_n = C(n+2a, a) sum_k C(n+a, k) C(n+a, n-k) (x'-h)^(n-k)
    # (x'-l)^k, expanded in powers of x' with integer binomials alone, and
    # its product with c + d x'
    for n in range(12):
        row = [0] * (n + 1)
        for k in range(n + 1):
            weight = math.comb(n + a, k) * math.comb(n + a, n - k)
            for i in range(n - k + 1):
                for j in range(k + 1):
                    row[i + j] += (weight * math.comb(n - k, i)
                                   * (-h) ** (n - k - i)
                                   * math.comb(k, j) * (-l) ** (k - j))
        row = [0] + [math.comb(n + 2 * a, a) * u for u in reversed(row)]
        for c, d in ((1, 0), (3, -5)):
            assert list(inversion._taylor(n, a, l, h, c, d)) == \
                [c * u + d * v for u, v in zip(row, row[1:] + [0])]


@pytest.mark.parametrize("interval, a, kept", [
    (DIFF_INTERVAL, 0, 4),      # f_3 = 1
    (PT_INTERVAL, 1, 3),        # f_3 = 2
])
def test_partial_divisor_steps(interval, a, kept):
    # at xi = 0 the order-3 step of the g weights that once gave S(1)
    # divided out only f_3 of 3 + 2a + 1 and kept (3 + 2a + 1) / f_3 = kept
    # in its scale; the banks of those orders are checked all the same
    for m in (3, 4, 30):
        assert bank(interval, a, 0, m) == \
            tail_coeffs_from_tables(build_tables(interval, a, m))


def _integers(bank):
    # the bank's integers an_i, put together from their odd parts and shifts
    return tuple(o << t for o, t in zip(bank.odd, bank.twos))


@pytest.mark.parametrize("interval", [PT_INTERVAL, DIFF_INTERVAL])
def test_bank_scale_is_lcm_of_reduced_denominators(interval):
    # the bank keeps the A_i as integers an_i over one scale, the lcm of
    # their reduced denominators, whatever the weight, cut point and order;
    # each an_i is stored as an odd part and a shift, a zero as 0 and 0
    lo, hi = interval
    for a in (0, 1, 3):
        for xi in (Fraction(0), Fraction(-1, 64), lo, hi):
            for m in (0, 1, 2, 7, 60):
                bank = inversion._exact_bank(lo, hi, a, xi, m)
                assert bank.scale == math.lcm(
                    *(x.denominator for x in bank.coeffs))
                assert _integers(bank) == tuple(x * bank.scale
                                                for x in bank.coeffs)
                assert all(o % 2 or not o and not t
                           for o, t in zip(bank.odd, bank.twos))


def test_bank_scale_width(monkeypatch):
    # the widest integers the construction holds are the numerators it
    # hands to the final reduction, 2,553 bits here (the rows and the
    # recurrences stay under 2,600); while the Taylor rows carried a spare
    # 2^n they were 3,151, with the power of two of z^i multiplied in too
    # 4,828, and the m^2/2-step pass they replaced kept a common scale of
    # 4,490 bits alone
    widths = []
    reduced = inversion._reduced

    def spy(den, nums, step):
        widths.append(max(n.bit_length() for n in nums + [den]))
        return reduced(den, nums, step)

    monkeypatch.setattr(inversion, "_reduced", spy)
    inversion._emit(*PT_INTERVAL, 0, Fraction(0), 300)
    assert widths and max(widths) < 2700


def _bank_bytes(bank):
    return (sys.getsizeof(bank.scale) + sys.getsizeof(bank.odd)
            + sys.getsizeof(bank.twos)
            + sum(map(sys.getsizeof, bank.odd + bank.twos)))


@pytest.mark.parametrize("interval", [PT_INTERVAL, DIFF_INTERVAL])
def test_bank_build_transient_stays_small(interval):
    # what building a bank allocates beyond the bank it returns is mostly
    # its unreduced numerators: 0.26 of the bank for pt and 0.19 for diff
    # at order 400, and 0.71 and 0.36 while they carried the power of two
    # of z^i and the reduction shifted it back out
    inversion._emit(*interval, 0, Fraction(0), 5)
    gc.collect()
    tracemalloc.start()
    try:
        built = inversion._emit(*interval, 0, Fraction(0), 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = _bank_bytes(built)
    assert peak - size < 0.3 * size


def _odd_and_twos(n):
    t = (n & -n).bit_length() - 1 if n else 0
    return n >> t, t


def _reference_bank(den, nums, step):
    # the A_i = N_i 2^(step i) / den as Fractions over the lcm of their
    # denominators, each integer split into its odd part and its shift
    coeffs = [Fraction(n << step * i, den) for i, n in enumerate(nums)]
    scale = math.lcm(*(x.denominator for x in coeffs))
    odd, twos = zip(*(_odd_and_twos(int(x * scale)) for x in coeffs))
    return odd, twos, scale


def _takes_the_mend(den, nums, step):
    # whether den and the first three odd parts leave more than the common
    # odd factor of all of them, so that _reduced mends its quotients
    common = min([_odd_and_twos(n)[1] + step * i
                  for i, n in enumerate(nums) if n]
                 + [_odd_and_twos(den)[1]])
    odd = [_odd_and_twos(n)[0] for n in nums]
    return math.gcd(den >> common, *odd[:3]) > math.gcd(den >> common, *odd)


@st.composite
def reduction_inputs(draw):
    # numerators with zeros, both signs and a shared odd factor, over dens
    # with more and with fewer trailing zero bits than every numerator
    shared = draw(st.sampled_from([1, 3, 45, 7 * 11 * 13, (1 << 89) - 1]))
    odd = st.integers(-(1 << 200), 1 << 200).map(lambda n: 2 * n + 1)
    value = st.one_of(st.just(0), odd.map(lambda n: n * shared))
    nums = [draw(value) << draw(st.integers(0, 24))
            for _ in range(draw(st.integers(1, 10)))]
    den = (draw(st.integers(0, 1 << 120)) * 2 + 1) * shared \
        << draw(st.integers(0, 60))
    return den, nums, draw(st.integers(0, 9))


@settings(max_examples=300, deadline=None)
@given(reduction_inputs())
@example((1, [0], 0))
@example((1 << 40, [0, 0, 0], 8))
@example((3, [3, 3, -3, 1], 0))             # g0 = 3, g = 1: the mend
@example((3 << 1, [1 << 2, 3 << 2, 0], 1))  # den has the fewest twos
@example((5 << 30, [5 << 3, 0, 10, -15, 0, 5 << 2], 4))
def test_reduction_matches_fraction_reference(case):
    den, nums, step = case
    built = inversion._reduced(den, list(nums), step)
    assert (built.odd, built.twos, built.scale) == \
        _reference_bank(den, nums, step)


def test_reduction_mends_a_recorded_bank(monkeypatch):
    # pt, w = 0, xi = -1/48, m = 40: the provisional gcd is 9 times the
    # common odd factor, so every quotient takes the mend
    handed = []
    reduced = inversion._reduced

    def spy(den, nums, step):
        handed.append((den, list(nums), step))
        return reduced(den, nums, step)

    monkeypatch.setattr(inversion, "_reduced", spy)
    built = inversion._emit(*PT_INTERVAL, 0, Fraction(-1, 48), 40)
    (den, nums, step), = handed
    assert step == 8 and _takes_the_mend(den, nums, step)
    assert (built.odd, built.twos, built.scale) == \
        _reference_bank(den, nums, step)


def test_bank_memo_stays_bounded():
    # 40 distinct orders in one process leave at most the memo's size of
    # banks alive
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 40)
    for m in range(1, 41):
        gegenbauer_tail(seq, 1, 0, m, mode=MODE_EXACT)
    limit = inversion._exact_bank.cache_info().maxsize
    assert inversion._exact_bank.cache_info().currsize <= limit
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, inversion._Bank)]
    assert len(alive) <= limit


# SHA-256 over the hex digits of scale and then of every an_i, each an_i
# after a comma, of the banks the m^2/2-step Clenshaw pass built; the
# m = 1000 banks at w = 3, xi = -1/48 and at diff, xi = 1/1000 were built by
# the O(m) pass while its Taylor rows still carried a spare 2^n, and the
# m = 0 banks while order 0 had a branch of its own
RECORDED_BANKS = {
    ("pt", 0, "0", 100): "b45a5c88e690fa1c977e168a3256668d8a3a268fb0cf555493d2dba9712d9d25",
    ("pt", 0, "0", 500): "7595bba5d94c23b9fc6a7e2979d10dd0b85356eeffb166993a812c4050451854",
    ("pt", 0, "-1/64", 100): "24fe56813fcf8393e4114dac4fd8137d3e77f110e4ba0e265985add9dc4249e7",
    ("pt", 0, "-1/64", 500): "4db534737decec06edab588be28dcbb14737ee265fef13bc88661bb5034a3b41",
    ("pt", 2, "0", 100): "8de9974ec3af116fb11dc67817cd39a93b65b755d432e425362467c994dd8d92",
    ("pt", 2, "0", 500): "27a887bf4bdf94e9d72ec2eb80bdcd601e40be80647d3c4aaa555022434cd4b8",
    ("pt", 2, "-1/64", 100): "0f66372dcff52346a7e979adc9271817c2322396b5b3ec110a482cee5c866dde",
    ("pt", 2, "-1/64", 500): "f3ccea009d8e66d077a813ce6bd3c1b87ea5e156d8cfcf937876841588c60ff8",
    ("diff", 0, "0", 100): "207fb20f159c218c21d13d5ae67432cfd4838cee4b0474e79bace7194fba92aa",
    ("diff", 0, "0", 500): "15a002c386f8f768455e9d5e025ebf3da365db30c032672c7d3956b8c60cc071",
    ("diff", 0, "-1/20", 100): "11f32a148215e9fd249c4282420f75d3e9d03968026d180976951c5900f6bdb3",
    ("diff", 0, "-1/20", 500): "a882db7ae729bc7d4a1b76e90b8c2dc9ab3ab89414b458b4cb126eb6a0cd86d7",
    ("diff", 2, "0", 100): "fb0816369eb1f223abe447269dfcc4f6aff31574f60d7862565a038862e1e4c3",
    ("diff", 2, "0", 500): "94526cc03b0065de1a73c7c9587996b5bf61e135cdd95e819659db8aa9ef7193",
    ("diff", 2, "-1/20", 100): "0f2c02f32b7e462b46d35c3d51746c6af56059d27f3374fb4c40266af275e828",
    ("diff", 2, "-1/20", 500): "f79cea9ac539e4a439f281f5427cef3cf7328eb753d053a3bb9154c793332a6c",
    ("pt", 0, "0", 1000): "a54826136557ee6b3921e14e0a3209aa6ef8db70644ebec313e9bff0b7723a4b",
    ("pt", 3, "-1/48", 1000): "6afc35c5b43f395f1805bf409f6917d5a5d1cbf2744841bd88d892177c99c818",
    ("diff", 0, "1/1000", 1000): "6ae61f3ed3961915c427a5d33d7ac6c0018d11145379c02d0e794c908ccaecda",
    ("pt", 2, "-1/64", 0): "adcbd78fe0a5db0ee7f9c4db91d8a3cba5f2b5dc9a57f8dfd7b2d990cee70c69",
    ("diff", 3, "1/1000", 0): "f8d660d7f671efefa75eba59eb091a90e7c3bdb1f9ea836cb75b938badcd0c88",
}


@pytest.mark.parametrize("variable, a, xi, m", sorted(RECORDED_BANKS))
def test_bank_reproduces_recorded_high_orders(variable, a, xi, m):
    # past m ~ 60 the table oracle is too slow; these orders are checked
    # against the banks recorded from the previous construction instead
    interval = {"pt": PT_INTERVAL, "diff": DIFF_INTERVAL}[variable]
    built = inversion._emit(*interval, a, Fraction(xi), m)
    digest = hashlib.sha256(format(built.scale, "x").encode())
    for n in _integers(built):
        digest.update(b"," + format(n, "x").encode())
    assert digest.hexdigest() == RECORDED_BANKS[variable, a, xi, m]


def _plain_dot(an, nums, steps):
    acc = 0
    for a, num, step in zip(an, nums, steps):
        acc = acc * step + a * num
    return acc


@st.composite
def dot_terms(draw):
    # bank-like integers with zeros, signs, odd values and long runs of
    # trailing zero bits, against moment-like numerators and small steps
    count = draw(st.integers(0, 12))
    values = st.one_of(st.just(0), st.sampled_from([1, -1, 3, -5]),
                       st.integers(-(1 << 600), 1 << 600))
    shifts = st.sampled_from([0, 0, 1, 7, 64, 2400, 5000])
    an = [draw(values) << draw(shifts) for _ in range(count)]
    nums = draw(st.lists(st.integers(-(1 << 900), 1 << 900),
                         min_size=count, max_size=count + 2))
    steps = draw(st.lists(st.integers(1, 1 << 40), min_size=len(nums),
                          max_size=len(nums)))
    return an, nums, steps


@settings(max_examples=200, deadline=None)
@given(dot_terms())
@example(([], [], []))
@example(([0, 0, 0], [5, -7, 9], [1, 3, 1]))
@example(([1 << 5000, -(3 << 4999), 7, -(1 << 2408)],
          [-1, (1 << 300) + 1, 1 << 900, -5], [1, 2, 1 << 40, 3]))
def test_dot_skips_zero_bits_exactly(terms):
    # _dot reads the bank as odd parts and shifts
    an, nums, steps = terms
    bank = inversion._reduced(1, list(an), 0)
    assert _integers(bank) == tuple(an)
    assert inversion._dot(bank, nums, steps) == _plain_dot(an, nums, steps)


# SHA-256 of the hex numerator and denominator, joined by "/", of exact
# tails at order 1000, recorded before the dot product skipped the bank's
# zero bits.  z, the bank's integer map, is 256 for pt and 432 for diff;
# at xi = -1/20 it is 2160, whose odd part is 135.
RECORDED_TAILS_1000 = {
    ("pt", "1", "0", 0, "0"): "1d3ef42e48055effe8283483d1b589e4ff482c2a06b50a25241b4d891fca8461",
    ("pt", "1/2", "3", 2, "0"): "8d7c96b315c98de9e2c683ba3ec0065891f6af63cd16124f2f48e082797b5119",
    ("diff", "1", "0", 0, "0"): "cdb5b472635dc7ee4d24ff15a3a1698a3a10cf1afc4e60ebc56e686a8d72dfbe",
    ("diff", "2", "3", 2, "0"): "90e5b4982eaa03948a84400d8b105fbe82a8c593f960f7809a1593e28b635b5d",
    ("diff", "1", "0", 0, "-1/20"): "3ffc0ed489a217009f7d22b38a314246b7f203d768f2d8a7f81365a2fdff2fa5",
    ("diff", "1/2", "3", 2, "-1/20"): "830f6fee4d7c4bded7fbfcb7efd81e75d0787cdf2128bab729e39cf8ac814517",
}


@pytest.mark.parametrize("variable, alpha, k, a, xi",
                         sorted(RECORDED_TAILS_1000))
def test_tails_reproduce_recorded_order_1000(variable, alpha, k, a, xi):
    seq = moment_sequence(Scenario(variable, Fraction(alpha), Fraction(k)),
                          1000)
    value = gegenbauer_tail(seq, a, Fraction(xi), 1000, mode=MODE_EXACT).value
    digest = hashlib.sha256(
        f"{value.numerator:x}/{value.denominator:x}".encode()).hexdigest()
    assert digest == RECORDED_TAILS_1000[variable, alpha, k, a, xi]


def test_bank_stays_consistent_under_threads():
    # more threads than cores move one fresh bank up and down at once
    seq = moment_sequence(Scenario(Variable.DIFF, Fraction(1), Fraction(0)), 24)
    orders = [24, 3, 17, 9, 24, 0, 12, 20] * 2
    expect = {m: tail_coeffs_from_tables(build_tables(DIFF_INTERVAL, 3, m))
              for m in set(orders)}
    results = {}

    def work(i, m):
        results[i] = gegenbauer_tail(seq, 3, 0, m, mode=MODE_EXACT).coeffs

    threads = [threading.Thread(target=work, args=(i, m))
               for i, m in enumerate(orders)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results[i] for i in range(len(orders))] == \
        [expect[m] for m in orders]


def correctly_rounded(x, digits):
    """x rounded half to even to the binary precision of `digits` digits."""
    bits = mpmath.libmp.dps_to_prec(digits)
    if x == 0:
        return x
    e = x.numerator.bit_length() - x.denominator.bit_length() - bits
    while abs(x) >= Fraction(2) ** (e + bits):
        e += 1
    while abs(x) < Fraction(2) ** (e + bits - 1):
        e -= 1
    return round(x / Fraction(2) ** e) * Fraction(2) ** e


def as_fraction(v):
    man, exp = v.man_exp        # mpmath drops the sign here
    return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def test_weight_helps_past_the_cut_point():
    # at a cut point that is not a singular point of the density the
    # Gegenbauer weight pays: at pt, alpha = 1, k = 0, xi = 1/512 and
    # m = 250 the w = 4 tail is 5.6e-7 from the w = 4 tail at m = 1000,
    # the Legendre one 1.1e-5
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)),
                          1000)
    xi = Fraction(1, 512)
    ref = gegenbauer_tail(seq, 4, xi, 1000, mode=MODE_EXACT).value
    flat = legendre_tail(seq, xi, 250, mode=MODE_EXACT).value
    weighted = gegenbauer_tail(seq, 4, xi, 250, mode=MODE_EXACT).value
    assert abs(weighted - ref) < abs(flat - ref) / 5


def test_float_mode_tracks_exact_mode():
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 200)
    for m, digits in ((117, 30), (200, 60), (200, 1)):
        exact = legendre_tail(seq, 0, m, mode=MODE_EXACT)
        approx = legendre_tail(seq, 0, m, mode=MODE_FLOAT, precision=digits)
        assert approx.mode == MODE_FLOAT and approx.precision == digits
        assert as_fraction(approx.value) == correctly_rounded(exact.value,
                                                              digits)
        assert approx.coeffs == exact.coeffs


def test_precision_must_be_a_positive_int():
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 5)
    for mode in (MODE_FLOAT, MODE_EXACT, MODE_AUTO):
        for bad in (-3, 0, 2.5, True, "40"):
            with pytest.raises(DomainError):
                legendre_tail(seq, 0, 5, mode=mode, precision=bad)
    assert legendre_tail(seq, 0, 5, mode=MODE_FLOAT, precision=1).precision == 1


def test_auto_mode_switches_at_the_limit(monkeypatch):
    monkeypatch.setattr(inversion, "AUTO_EXACT_LIMIT", 10)
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 11)
    assert legendre_tail(seq, 0, 10).mode == MODE_EXACT
    est = legendre_tail(seq, 0, 11)
    assert est.mode == MODE_FLOAT
    assert est.precision == inversion.DEFAULT_FLOAT_DIGITS


def test_tail_validation_errors():
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 5)
    with pytest.raises(DomainError):
        gegenbauer_tail(seq, -1, 0, 3)
    with pytest.raises(DomainError):
        gegenbauer_tail(seq, 0, 0, -1)
    with pytest.raises(DomainError):
        gegenbauer_tail(seq, 0, 0, "3")
    with pytest.raises(DomainError):
        legendre_tail(seq, 0, True)
    with pytest.raises(DomainError):
        gegenbauer_tail(seq, 0, 0, 6)  # needs 7 moments, has 6
    with pytest.raises(DomainError):
        gegenbauer_tail(seq, 0, Fraction(1, 2), 3)  # outside support
    with pytest.raises(DomainError):
        gegenbauer_tail(seq, 0, 0, 3, mode="symbolic")

