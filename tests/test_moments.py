"""Unit tests for the determinantal moment families."""

import gc
import hashlib
import math
import sys
import threading
import weakref
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
    # the batch path every tail estimate is served from
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
    for bad in ("xx", "PT", None):
        with pytest.raises(DomainError, match="pt or diff"):
            Scenario(bad, 1, 0)


def test_moment_sequence_shape_and_memo_extension():
    s = Scenario(Variable.DIFF, Fraction(2), Fraction(1))
    seq5 = moment_sequence(s, 5)
    assert len(seq5) == 6 and seq5.order == 5
    assert seq5.mu[0] == 1
    seq8 = moment_sequence(s, 8)
    assert seq8.mu[:6] == seq5.mu
    # a shorter request is the prefix of a longer one, and a repeat the same
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
        MomentSequence(s, (), ())
    with pytest.raises(DomainError):
        MomentSequence(s, (2,), (1,))
    with pytest.raises(DomainError):
        MomentSequence(s, (0,), (0,))
    with pytest.raises(DomainError):
        MomentSequence(s, (1, 1), (1,))
    with pytest.raises(DomainError):
        MomentSequence(s, (1,), (1, 3))
    assert MomentSequence(s, (3, 1), (3, 5)).mu == (1, Fraction(1, 15))


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


def _unpack(value, width, count):
    # the slots of a packed value, each less the bias of _pack; the top
    # slot needs no mask
    mask, half = (1 << width) - 1, 1 << width - 1
    out = []
    for _ in range(count - 1):
        out.append((value & mask) - half)
        value >>= width
    return out + [value - half]


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
        assert _unpack(horner(packed, x), width, count) == \
            [horner(c, x) for c in coeffs], x


def test_packed_pass_on_the_table():
    # the table's own c_0..c_r at the largest coefficients of the grid,
    # over the whole range a request to order 1000 steps
    for variable in Variable:
        r = moments._ORDER[variable]
        coeffs = moments._recurrence(variable, Fraction(4), Fraction(20))
        width, packed = moments._pack(coeffs, 1000 - r)
        for x in range(1000 - r + 1):
            assert _unpack(horner(packed, x), width, r + 1) == \
                [horner(c, x) for c in coeffs], (variable, x)


def _scaled_by_horner(variable, alpha, k, m):
    # the per-order loop that the difference table and the one division
    # replace: each c_i(n - r) by its own Horner pass, then one gcd of the
    # whole sum with c_r and two divisions by it
    r = moments._ORDER[variable]
    nums, steps = moments._rescale(moments._fast_moment(variable, alpha, k, i)
                                   for i in range(min(r, m + 1)))
    coeffs = moments._recurrence(variable, alpha, k)
    window = [nums[i] * math.prod(steps[i + 1:]) for i in range(len(nums))]
    for n in range(r, m + 1):
        *lower, den = (horner(c, n - r) for c in coeffs)
        num = -sum(c * w for c, w in zip(lower, window))
        g = math.gcd(num, den)
        nums.append(num // g)
        steps.append(den // g)
        window = [w * steps[-1] for w in window[1:]] + [nums[-1]]
    return nums, steps


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Variable)), st.integers(1, 8), st.integers(0, 40),
       st.integers(0, 90))
# sequences of fewer orders past r than the degree, whose difference
# tables start from values past the range of the slot width
@example(Variable.PT_DET, 8, 40, 90)
@example(Variable.PT_DET, 1, 0, 7)
@example(Variable.PT_DET, 2, 0, 3)
@example(Variable.PT_DET, 2, 0, 0)
@example(Variable.DIFF, 8, 40, 90)
@example(Variable.DIFF, 2, 0, 2)
@example(Variable.DIFF, 5, 11, 1)
def test_difference_table_stepping_matches_horner(variable, a2, k2, m):
    # the one pass from order 0 gives the integers of the per-order
    # Horner loop
    alpha, k = Fraction(a2, 2), Fraction(k2, 2)
    assert moments._scaled(variable, alpha, k, m) == \
        _scaled_by_horner(variable, alpha, k, m)


def _rooted(roots):
    # the ascending integer coefficients of prod_t (x - t)
    poly = [1]
    for t in roots:
        poly = [b - t * a for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly)


# packed polynomials and the top x of their slot range: both variables'
# c_0..c_r at the largest coefficients of the grid up to order 200 and up
# to order 8, whose range is shorter than the degree, so the table starts
# from values past it, and a top slot with roots inside the range, whose
# higher differences take both signs
DIFFERENCE_CASES = {
    "pt": (moments._recurrence(Variable.PT_DET, Fraction(4), Fraction(20)),
           200 - moments._ORDER[Variable.PT_DET]),
    "diff": (moments._recurrence(Variable.DIFF, Fraction(4), Fraction(20)),
             200 - moments._ORDER[Variable.DIFF]),
    "short": (moments._recurrence(Variable.PT_DET, Fraction(4), Fraction(20)),
              8 - moments._ORDER[Variable.PT_DET]),
    "signs": (((9, -4, 1), (-6, 0, 0, 2), _rooted((3, 11, 19, 27, 35))), 37),
}


def test_differences_step_the_packed_polynomial():
    # the one integer T = sum_j Delta^j 2^(jB), B = (r + 1) W, started at
    # x = 0 holds horner(packed, y) in its low B bits at every y of the
    # range, stepped by T += T >> B, whatever the signs of the higher
    # differences.  One bit less than B misreads.
    signs = {}
    for case, (coeffs, xmax) in DIFFERENCE_CASES.items():
        count = len(coeffs)
        width, packed = moments._pack(coeffs, xmax)
        shift = count * width
        mask = (1 << shift) - 1
        values = [horner(packed, j) for j in range(len(packed))]
        diffs = []
        while values:
            diffs.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        signs[case] = {(d > 0) - (d < 0) for d in diffs[1:]}
        table = moments._differences(packed, shift)
        assert table == sum(d << j * shift for j, d in enumerate(diffs))
        short, misread = moments._differences(packed, shift - 1), False
        for y in range(xmax + 1):
            value = table & mask
            assert value == horner(packed, y)
            assert _unpack(value, width, count) == \
                [horner(c, y) for c in coeffs], (case, y)
            table += table >> shift
            misread |= short & (mask >> 1) != value
            short += short >> shift - 1
        assert misread, case
    assert signs == {"pt": {1}, "diff": {1}, "short": {1}, "signs": {1, -1}}


def test_sequence_from_fractions():
    # _rescale, which seeds the orders below r, derives the scaled form
    # of Fractions by a running lcm
    s = Scenario(Variable.PT_DET, Fraction(3, 2), Fraction(2))
    served = moment_sequence(s, 30)
    nums, steps = moments._rescale(served.mu)
    built = MomentSequence(s, tuple(nums), tuple(steps))
    assert built.mu == served.mu and len(built) == 31 and built.order == 30
    scale = 1
    for num, step, x in zip(built.nums, built.steps, built.mu):
        scale *= step
        assert Fraction(num, scale) == x
    lcm = math.lcm(*(x.denominator for x in served.mu))
    assert math.prod(built.steps) == lcm


def test_memo_extension_continues_the_recurrence(monkeypatch):
    # the direct sums seed only orders 0..r-1, at every order requested;
    # the recurrence steps every later order
    direct = moments._fast_moment
    seeded = []

    def counted(variable, alpha, k, n):
        seeded.append(n)
        return direct(variable, alpha, k, n)

    monkeypatch.setattr(moments, "_fast_moment", counted)
    for variable, r in ((Variable.PT_DET, 3), (Variable.DIFF, 2)):
        s = Scenario(variable, Fraction(5, 2), Fraction(3, 2))
        for m in (1, 12, 40):
            seeded.clear()
            seq = moment_sequence(s, m)
            assert seeded == list(range(min(r, m + 1)))
            assert seq.mu == tuple(direct(variable, s.alpha, s.k, n)
                                   for n in range(m + 1))


def test_orders_below_r_read_no_table():
    # orders 0..r-1 are the direct sums alone; order r specializes the
    # table once.  _ORDER is the order of the table's recurrence.
    for variable in Variable:
        r = moments._ORDER[variable]
        assert max(i for i, *_ in moments._table_rows(variable)) == r
        s = Scenario(variable, Fraction(3), Fraction(0))
        moments._alpha_table.cache_clear()
        for n in range(r):
            moment_sequence(s, n)
        assert moments._alpha_table.cache_info().misses == 0
        assert moment_sequence(s, r).mu[r] == moments._fast_moment(
            variable, s.alpha, s.k, r)
        assert moments._alpha_table.cache_info().misses == 1


def test_memo_stays_consistent_under_threads():
    # more threads than cores compute sequences at once
    scenarios = [Scenario(variable, alpha, Fraction(1))
                 for variable in Variable for alpha in (HALF, 2)]
    expect = {s: tuple(moments._fast_moment(s.variable, s.alpha, s.k, n)
                       for n in range(51)) for s in scenarios}
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


def test_sequence_is_not_kept():
    # nothing holds a returned sequence: once its caller drops it, it is
    # gone, its Fractions too
    for variable in Variable:
        seq = moment_sequence(Scenario(variable, Fraction(1), Fraction(0)), 40)
        assert len(seq.mu) == 41
        ref = weakref.ref(seq)
        del seq
        gc.collect()
        assert ref() is None, variable
