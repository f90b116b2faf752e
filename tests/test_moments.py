"""Unit tests for the determinantal moment families."""

import hashlib
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import diff_moment_oracle, pt_moment_oracle
from sepprob import moments
from sepprob.errors import DomainError
from sepprob.exactnum import horner
from sepprob.moments import DIFF_INTERVAL, MomentSequence, PT_INTERVAL, \
    Scenario, Variable, diff_moment, moment_sequence, pt_moment

HALF = Fraction(1, 2)


def test_zeroth_moments_are_one():
    for alpha in (HALF, 1, 2):
        assert pt_moment(alpha, 0, 0) == 1
        assert diff_moment(alpha, 3, 0) == 1


def test_pt_moment_spot_values():
    assert pt_moment(1, 0, 1) == Fraction(-7, 3876)
    assert pt_moment(HALF, 0, 1) == Fraction(-1, 858)


def test_diff_moment_spot_values():
    assert diff_moment(1, 0, 1) == Fraction(-2, 969)
    assert diff_moment(1, 0, 2) == Fraction(20, 1716099)
    assert diff_moment(HALF, 0, 1) == Fraction(-1, 624)
    assert diff_moment(HALF, 1, 2) == Fraction(13, 3046400)


def test_first_moments_match_oracle_slopes():
    # the oracle is built from the raw parameter lists; spot-check it
    # against the library on first moments across parities of k
    for alpha in (HALF, 1, 2):
        for k in (0, HALF, 1, 2):
            assert pt_moment(alpha, k, 1) == pt_moment_oracle(alpha, k, 1)
            assert diff_moment(alpha, k, 1) == diff_moment_oracle(alpha, k, 1)


def test_oracle_equivalence_on_degenerate_orders():
    # integer k < n is where the 5F4 terms degenerate to 0/0 limits
    for k in (0, 1, 2):
        for n in range(k + 1, 12):
            assert pt_moment(1, k, n) == pt_moment_oracle(1, k, n)
    assert pt_moment(2, 0, 9) == pt_moment_oracle(2, 0, 9)
    assert pt_moment(HALF, 1, 7) == pt_moment_oracle(HALF, 1, 7)


def test_support_bound():
    # both variables live inside [-1/16, 1/256] or [-1/16, 1/432]
    bound = Fraction(1, 16)
    for variable in Variable:
        seq = moment_sequence(Scenario(variable, Fraction(1), Fraction(0)), 30)
        for n, mu in enumerate(seq.mu):
            assert abs(mu) <= bound ** n


def test_even_moments_positive():
    for variable in Variable:
        seq = moment_sequence(Scenario(variable, HALF, Fraction(1)), 20)
        for n in range(0, 21, 2):
            assert seq.mu[n] > 0


def test_hankel_determinants_nonnegative():
    # moment matrices of a genuine probability measure are positive
    # semidefinite; check the leading 2x2 and 3x3 minors exactly
    for variable in Variable:
        for alpha in (HALF, 1, 2):
            mu = moment_sequence(Scenario(variable, alpha, Fraction(0)), 4).mu
            det2 = mu[0] * mu[2] - mu[1] * mu[1]
            det3 = (mu[0] * (mu[2] * mu[4] - mu[3] * mu[3])
                    - mu[1] * (mu[1] * mu[4] - mu[2] * mu[3])
                    + mu[2] * (mu[1] * mu[3] - mu[2] * mu[2]))
            assert det2 > 0
            assert det3 > 0


def test_moment_sequence_matches_oracle():
    # the memoized batch path every tail estimate is served from
    oracle = {Variable.PT_DET: pt_moment_oracle,
              Variable.DIFF: diff_moment_oracle}
    # k = n - 1 puts both vanishing 5F4 factors in one step, and the two
    # parities of k + n put the bottom zero in either factor of the
    # (x)_(2j) pair
    for variable in Variable:
        for alpha in (HALF, 1, Fraction(3, 2), 2):
            for k in (0, HALF, 1, 2, 3, 5):
                seq = moment_sequence(Scenario(variable, Fraction(alpha),
                                               Fraction(k)), 12)
                assert seq.mu == tuple(oracle[variable](alpha, k, n)
                                       for n in range(13))


def test_parameter_validation():
    with pytest.raises(DomainError):
        pt_moment(Fraction(1, 3), 0, 1)
    with pytest.raises(DomainError):
        pt_moment(0, 0, 1)
    with pytest.raises(DomainError):
        diff_moment(1, -1, 1)
    with pytest.raises(DomainError):
        diff_moment(1, Fraction(1, 4), 1)
    with pytest.raises(DomainError):
        pt_moment(1, 0, -1)
    with pytest.raises(DomainError):
        pt_moment(1, 0, 2.0)
    with pytest.raises(DomainError):
        pt_moment(1, 0, True)


def test_scenario_coercion_and_interval():
    s = Scenario(variable="pt", alpha="1/2", k="3/2")
    assert s.variable is Variable.PT_DET
    assert s.alpha == HALF and s.k == Fraction(3, 2)
    assert s.interval == PT_INTERVAL
    assert Scenario(Variable.DIFF, Fraction(1), Fraction(0)).interval == DIFF_INTERVAL
    with pytest.raises(DomainError):
        Scenario(Variable.PT_DET, Fraction(1, 3), Fraction(0))


def test_moment_sequence_shape_and_memo_extension():
    s = Scenario(Variable.DIFF, Fraction(2), Fraction(1))
    seq5 = moment_sequence(s, 5)
    assert len(seq5) == 6 and seq5.order == 5
    assert seq5.mu[0] == 1
    seq8 = moment_sequence(s, 8)
    assert seq8.mu[:6] == seq5.mu
    # shrinking requests replay the memo without truncating it
    assert moment_sequence(s, 3).mu == seq5.mu[:4]
    assert moment_sequence(s, 8).mu == seq8.mu


def test_moment_sequence_validation():
    s = Scenario(Variable.PT_DET, Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        moment_sequence(s, -1)
    with pytest.raises(DomainError):
        moment_sequence(s, "5")
    with pytest.raises(DomainError):
        moment_sequence(s, True)


def test_moment_sequence_dataclass_validation():
    s = Scenario(Variable.PT_DET, Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        MomentSequence(s, ())
    with pytest.raises(DomainError):
        MomentSequence(s, (Fraction(2),))


GRID_ALPHAS = (HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
               Fraction(4))
GRID_KS = (Fraction(0), HALF, Fraction(1), Fraction(3), Fraction(11, 2),
           Fraction(8), Fraction(20))


def _digest(seq):
    return hashlib.sha256(
        (",".join(format(x, "x") for x in seq.nums) + ";"
         + ",".join(format(x, "x") for x in seq.steps)).encode()).hexdigest()


def test_scaled_form_on_a_grid():
    # mu_n = nums[n] / S_n with S_n the running product of the steps: it
    # reproduces mu and the direct sums, and S_n stays within 64 bits of
    # the lcm of the reduced denominators of mu_0..mu_n.  nums and steps
    # are integer for integer those recorded from the per-order Horner
    # evaluation of c_0..c_r (before the packed pass).
    digest = hashlib.sha256()
    for variable in Variable:
        for alpha in GRID_ALPHAS:
            for k in GRID_KS:
                seq = moment_sequence(Scenario(variable, alpha, k), 200)
                digest.update(_digest(seq).encode())
                scale = lcm = 1
                for n, (num, step, x) in enumerate(zip(seq.nums, seq.steps,
                                                       seq.mu)):
                    scale *= step
                    lcm = math.lcm(lcm, x.denominator)
                    assert Fraction(num, scale) == x
                    assert scale % lcm == 0
                    assert scale // lcm < 1 << 64, (variable, alpha, k, n)
                for n in (0, 1, 2, 3, 4, 199, 200):
                    assert seq.mu[n] == moments._fast_moment(variable, alpha,
                                                             k, n)
    assert digest.hexdigest() == \
        "403982061f0e30f5ed3793a1c100480cd6c9943c9ee1ea2406daf1bdfb324dd4"


# nums and steps to order 1000, recorded from the per-order Horner
# evaluation of c_0..c_r (before the packed pass)
RECORDED_ORDER_1000 = {
    ("pt", "1/2", 0): "d2a356e89a2488362eced9eedd5ed79ece0dc59f94da3531fd908381b9333eec",
    ("pt", "1/2", 3): "1ca2797c201debeee47c52766a35d7ff7cc4f3da2f70e306398232e972e9e699",
    ("pt", "1", 0): "0be145e305a5d85910f6de4fc2fa6a29a9d09016d724159047b262292e198c3b",
    ("pt", "1", 3): "c7043d2ce66d1475048eb56e25aadc9c696cc59bf06e7663b98a6f1696939f26",
    ("pt", "2", 0): "d1269ce366aa8f57b3d7a5fd15971816dc03bbf2a88f647d91f5acbee76d419c",
    ("pt", "2", 3): "2e1252b2f56e321ec5aeb6ee9c9d351aea19f1706090b68a563fa3bb266fb8c5",
    ("diff", "1/2", 0): "a380e66b7cc0858bbff23270dcb5f97b017b8b85a3fa56fb65788ca674693e37",
    ("diff", "1/2", 3): "4d3dba83b3b0f56cb6599b3f06ba98b35e7da3653f6910da8d082efa81290b3a",
    ("diff", "1", 0): "d3c1ccb972b01e1f5bd97ab2b13eb9ad89db946a9a1dc44c0a2165c7657f4a83",
    ("diff", "1", 3): "527597a7e41991903a8d4f91cb0c79f80d302384722509e31bc6fe0fa8b6e59c",
    ("diff", "2", 0): "6e4d7b08c1cbf4f38dd568f3faf375a1a7ed9c454c07a01decbd5fe8ee16b23d",
    ("diff", "2", 3): "0c4dd8737eeb82e98e535a84c87ff508cdaf9a11458e33934f6276cd6fa0d97e",
}


@pytest.mark.parametrize("variable, alpha, k", sorted(RECORDED_ORDER_1000))
def test_moments_reproduce_recorded_order_1000(variable, alpha, k):
    seq = moment_sequence(Scenario(variable, alpha, k), 1000)
    assert _digest(seq) == RECORDED_ORDER_1000[variable, alpha, k]


def _widest(count, degree, bits, xmax, signs):
    # count polynomials of ascending coefficients with |c_{i,d}| the same
    # sign each, so |c_i(xmax)| = sum_d |c_{i,d}| xmax^d is the bound; slot
    # 0 reaches 2^bits - 1 exactly, the largest value a width of bits + 1
    # holds with its sign, and the others a little less.  Each power
    # carries a like share of the bound at xmax.
    out = []
    for i, sign in zip(range(count), signs):
        deg = degree - i % 2                    # unequal lengths too
        share = (1 << bits) // (deg + 1 + i)
        rest = [share // xmax ** d + d for d in range(1, deg + 1)]
        c0 = (1 << bits) - 1 - 7 * i - horner([0] + rest, xmax)
        assert c0 > 0
        out.append(tuple(sign * c for c in [c0] + rest))
    return tuple(out)


@pytest.mark.parametrize("signs", [(1, 1, 1, 1), (-1, -1, -1, -1),
                                   (1, -1, 1, -1), (-1, 1, -1, 1)])
@pytest.mark.parametrize("count, degree", [(4, 20), (3, 11), (1, 5)])
@pytest.mark.parametrize("mixed", [False, True])
def test_packed_pass_at_its_widest(signs, count, degree, mixed):
    # every unpacked slot equals its own Horner pass at every x of the
    # range, where the largest |c_i(x)| fills its slot but for the sign
    # bit; mixed flips each constant term, so that every c_i changes sign
    # on the range and the bound stays the same
    xmax, bits = 37, 180
    coeffs = _widest(count, degree, bits, xmax, signs)
    assert abs(horner(coeffs[0], xmax)) == (1 << bits) - 1
    if mixed:
        coeffs = tuple((-c[0],) + c[1:] for c in coeffs)
        assert all(horner(c, 0) * horner(c, xmax) < 0 for c in coeffs)
    width, packed = moments._pack(coeffs, xmax)
    assert width == bits + 1
    for x in range(xmax + 1):
        assert moments._unpack(horner(packed, x), width, count) == \
            [horner(c, x) for c in coeffs], x


def test_packed_pass_on_the_table():
    # the table's own c_0..c_r at the largest coefficients of the grid,
    # over the whole range a request to order 1000 steps
    for variable in Variable:
        r = moments._ORDER[variable]
        coeffs = moments._recurrence(variable, Fraction(4), Fraction(20))
        width, packed = moments._pack(coeffs, 1000 - r)
        for x in range(1000 - r + 1):
            assert moments._unpack(horner(packed, x), width, r + 1) == \
                [horner(c, x) for c in coeffs], (variable, x)


def test_memo_extension_derives_the_width_per_stretch(monkeypatch):
    # 0 -> r -> 40 -> 1000 through the memo equals one direct extension;
    # each stretch packs for its own highest order, so the width grows
    monkeypatch.setattr(moments, "_SEQ_MEMO", {})
    pack, packed = moments._pack, []

    def spy(coeffs, xmax):
        width, out = pack(coeffs, xmax)
        packed.append((xmax, width))
        return width, out

    for variable in Variable:
        r = moments._ORDER[variable]
        s = Scenario(variable, Fraction(4), Fraction(20))
        monkeypatch.setattr(moments, "_pack", spy)
        packed.clear()
        for m in (r, 40, 1000):
            seq = moment_sequence(s, m)
        assert [xmax for xmax, _ in packed] == [0, 40 - r, 1000 - r]
        widths = [width for _, width in packed]
        assert widths == sorted(set(widths)), widths
        monkeypatch.setattr(moments, "_pack", pack)
        nums, steps = [], []
        moments._extend(variable, s.alpha, s.k, nums, steps, 1000)
        assert (seq.nums, seq.steps) == (tuple(nums), tuple(steps))


def _extend_by_horner(variable, alpha, k, nums, steps, m):
    # the per-order loop that the difference table and the one division
    # replace: each c_i(n - r) by its own Horner pass, then one gcd of the
    # whole sum with c_r and two divisions by it
    r = moments._ORDER[variable]
    moments._rescale((moments._fast_moment(variable, alpha, k, i)
                      for i in range(len(nums), min(r, m + 1))), nums, steps)
    n = len(nums)
    if n > m:
        return
    coeffs = moments._recurrence(variable, alpha, k)
    window = [nums[i] * math.prod(steps[i + 1:n]) for i in range(n - r, n)]
    for n in range(n, m + 1):
        *lower, den = (horner(c, n - r) for c in coeffs)
        num = -sum(c * w for c, w in zip(lower, window))
        g = math.gcd(num, den)
        nums.append(num // g)
        steps.append(den // g)
        window = [w * steps[-1] for w in window[1:]] + [nums[-1]]


@st.composite
def stretches(draw):
    variable = draw(st.sampled_from(list(Variable)))
    alpha = Fraction(draw(st.integers(1, 8)), 2)
    k = Fraction(draw(st.integers(0, 40)), 2)
    m = draw(st.integers(0, 90))
    return variable, alpha, k, draw(st.integers(0, m)), m


@settings(max_examples=60, deadline=None)
@given(stretches())
# stretches of fewer orders than the degree, whose difference tables
# start from values past the range of the slot width
@example((Variable.PT_DET, Fraction(4), Fraction(20), 89, 90))
@example((Variable.PT_DET, Fraction(1, 2), Fraction(0), 3, 7))
@example((Variable.PT_DET, Fraction(1), Fraction(0), 0, 3))
@example((Variable.DIFF, Fraction(4), Fraction(20), 80, 90))
@example((Variable.DIFF, Fraction(1), Fraction(0), 2, 2))
@example((Variable.DIFF, Fraction(5, 2), Fraction(11, 2), 0, 1))
def test_difference_table_stepping_matches_horner(case):
    # 0 -> lo -> m in two stretches gives the integers of the per-order
    # Horner loop, and so does 0 -> m in one
    variable, alpha, k, lo, m = case
    expect_nums, expect_steps = [], []
    _extend_by_horner(variable, alpha, k, expect_nums, expect_steps, m)
    nums, steps = [], []
    moments._extend(variable, alpha, k, nums, steps, lo)
    assert (nums, steps) == (expect_nums[:lo + 1], expect_steps[:lo + 1])
    moments._extend(variable, alpha, k, nums, steps, m)
    assert (nums, steps) == (expect_nums, expect_steps)
    nums, steps = [], []
    moments._extend(variable, alpha, k, nums, steps, m)
    assert (nums, steps) == (expect_nums, expect_steps)


def test_differences_step_the_packed_polynomial():
    # the table at x steps to the values at x, x + 1, ... exactly, even
    # where its start values lie past the range of the slot width
    coeffs = moments._recurrence(Variable.PT_DET, Fraction(4), Fraction(20))
    width, packed = moments._pack(coeffs, 5)
    for x in (0, 3, 5):
        table = moments._differences(packed, x)
        assert len(table) == len(packed) == 21
        for y in range(x, x + 30):
            assert table[0] == horner(packed, y)
            if y <= 5:
                assert moments._unpack(table[0], width, 4) == \
                    [horner(c, y) for c in coeffs]
            table = [a + b for a, b in zip(table, table[1:])] + table[-1:]


def test_sequence_from_fractions():
    # a sequence built from Fractions keeps them and derives the scaled
    # form by a running lcm
    s = Scenario(Variable.PT_DET, Fraction(3, 2), Fraction(2))
    served = moment_sequence(s, 30)
    built = MomentSequence(s, list(served.mu))
    assert built.mu == served.mu and len(built) == 31 and built.order == 30
    scale = 1
    for num, step, x in zip(built.nums, built.steps, built.mu):
        scale *= step
        assert Fraction(num, scale) == x
    lcm = math.lcm(*(x.denominator for x in served.mu))
    assert math.prod(built.steps) == lcm


def test_memo_extension_continues_the_recurrence(monkeypatch):
    # the direct sums seed only orders 0..r-1 of a new scenario; a longer
    # request steps on from the remembered orders
    monkeypatch.setattr(moments, "_SEQ_MEMO", {})
    direct = moments._fast_moment
    seeded = []

    def counted(variable, alpha, k, n):
        seeded.append(n)
        return direct(variable, alpha, k, n)

    monkeypatch.setattr(moments, "_fast_moment", counted)
    for variable, r in ((Variable.PT_DET, 3), (Variable.DIFF, 2)):
        s = Scenario(variable, Fraction(5, 2), Fraction(3, 2))
        seeded.clear()
        short = moment_sequence(s, 1)
        longer = moment_sequence(s, 12)
        longest = moment_sequence(s, 40)
        assert seeded == list(range(r))
        assert longest.mu[:13] == longer.mu and longer.mu[:2] == short.mu
        assert longest.mu == tuple(direct(variable, s.alpha, s.k, n)
                                   for n in range(41))


def test_orders_below_r_read_no_table(monkeypatch):
    # orders 0..r-1 are the direct sums alone; order r specializes the
    # table once.  _ORDER is the order of the table's recurrence.
    monkeypatch.setattr(moments, "_SEQ_MEMO", {})
    for variable in Variable:
        r = moments._ORDER[variable]
        assert max(i for i, *_ in moments._table_rows(variable)) == r
        s = Scenario(variable, Fraction(3), Fraction(0))
        moments._alpha_table.cache_clear()
        for n in range(r):
            moments._SEQ_MEMO.clear()
            moment_sequence(s, n)           # cold
        moments._SEQ_MEMO.clear()
        for n in range(r):
            moment_sequence(s, n)           # extending the memo
        assert moments._alpha_table.cache_info().misses == 0
        assert moment_sequence(s, r).mu[r] == moments._fast_moment(
            variable, s.alpha, s.k, r)
        assert moments._alpha_table.cache_info().misses == 1


def _memo_bits():
    return sum(bits for _, bits in moments._SEQ_MEMO.values())


def test_memo_stays_bounded(monkeypatch):
    # a long session of distinct scenarios keeps at most the budget of
    # bits, evicting the least recently used sequence first
    monkeypatch.setattr(moments, "_SEQ_MEMO", {})
    one = moments._bits(moment_sequence(
        Scenario(Variable.PT_DET, Fraction(4), Fraction(20)), 60))
    monkeypatch.setattr(moments, "_SEQ_MEMO_BITS", 3 * one)
    kept = Scenario(Variable.PT_DET, HALF, Fraction(0))
    peak = 0
    for variable in Variable:
        for alpha in GRID_ALPHAS:
            for k in GRID_KS:
                moment_sequence(kept, 60)
                moment_sequence(Scenario(variable, alpha, k), 60)
                peak = max(peak, _memo_bits())
    assert peak <= 3 * one
    assert (kept.variable, kept.alpha, kept.k) in moments._SEQ_MEMO
    # a sequence longer than the whole budget is still kept, alone
    big = moment_sequence(Scenario(Variable.DIFF, HALF, Fraction(1)), 300)
    assert list(moments._SEQ_MEMO.values()) == [(big, moments._bits(big))]


def test_memo_stays_consistent_under_threads(monkeypatch):
    # more threads than cores extend, read and evict the memo at once
    monkeypatch.setattr(moments, "_SEQ_MEMO", {})
    scenarios = [Scenario(variable, alpha, Fraction(1))
                 for variable in Variable for alpha in (HALF, 2)]
    expect = {s: tuple(moments._fast_moment(s.variable, s.alpha, s.k, n)
                       for n in range(51)) for s in scenarios}
    monkeypatch.setattr(moments, "_SEQ_MEMO_BITS",
                        2 * moments._bits(moment_sequence(scenarios[0], 50)))
    jobs = [(s, m) for m in (50, 7, 30, 50) for s in scenarios] * 2
    results = {}

    def work(i, s, m):
        results[i] = moment_sequence(s, m).mu

    threads = [threading.Thread(target=work, args=(i, s, m))
               for i, (s, m) in enumerate(jobs)]
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
    assert [results[i] for i in range(len(jobs))] == \
        [expect[s][:m + 1] for s, m in jobs]
    assert _memo_bits() <= moments._SEQ_MEMO_BITS or len(moments._SEQ_MEMO) == 1
