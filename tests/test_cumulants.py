"""Moment transforms, checked exactly against brute-force noncrossing sums."""

from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from freesub import BadParams
from freesub.cumulants import (
    free_cumulants,
    free_cumulants_to_moments,
    free_multiplicative_moments,
)


def all_partitions(n):
    """Every set partition of {1..n}, by direct recursion."""
    if n == 0:
        return [()]
    out = []
    for smaller in all_partitions(n - 1):
        out.append(smaller + ((n,),))
        for i, blk in enumerate(smaller):
            out.append(smaller[:i] + (blk + (n,),) + smaller[i + 1:])
    return out


def is_noncrossing(pi):
    """a < b < c < d with a,c and b,d in different blocks is forbidden."""
    where = {}
    for i, blk in enumerate(pi):
        for x in blk:
            where[x] = i
    points = sorted(where)
    for a, b, c, d in combinations(points, 4):
        if where[a] == where[c] and where[b] == where[d] and where[a] != where[b]:
            return False
    return True


def noncrossing(n):
    """NC(n), filtered out of all set partitions by the crossing test."""
    return [pi for pi in all_partitions(n) if is_noncrossing(pi)]


def kreweras(pi, n):
    """Kr(pi): on the even slots 2i it interleaves with pi on the odd slots
    2i - 1 without crossing, and has the fewest blocks that allows."""
    odd = [tuple(2 * x - 1 for x in blk) for blk in pi]
    fits = [sigma for sigma in noncrossing(n) if is_noncrossing(
        odd + [tuple(2 * x for x in blk) for blk in sigma])]
    fewest = min(len(sigma) for sigma in fits)
    (sigma,) = [s for s in fits if len(s) == fewest]  # it is unique
    assert len(pi) + len(sigma) == n + 1
    return sigma


def over_blocks(seq, pi):
    """prod over the blocks of pi of seq[|block| - 1]."""
    return prod(seq[len(blk) - 1] for blk in pi)


def nc_cumulants(moments):
    """Free cumulants solved from m_n = sum over NC(n) of kappa_pi."""
    kappa = []
    for n in range(1, len(moments) + 1):
        rest = sum(over_blocks(kappa, pi) for pi in noncrossing(n) if len(pi) > 1)
        kappa.append(moments[n - 1] - rest)
    return kappa


def test_semicircle_cumulants_exact():
    # kappa = (0, s^2, 0, 0, ...) for the semicircle of variance s^2
    s2 = Fraction(9, 4)
    moments = free_cumulants_to_moments([0, s2] + [0] * 6)
    for k in range(1, 9):
        if k % 2:
            assert moments[k - 1] == 0
        else:
            j = k // 2
            assert moments[k - 1] == s2 ** j * Fraction(comb(2 * j, j), j + 1)


def test_free_poisson_cumulants_exact():
    # all cumulants equal to lam; at lam = 1 the moments are Catalan
    moments = free_cumulants_to_moments([Fraction(1)] * 8)
    assert moments == [comb(2 * n, n) // (n + 1) for n in range(1, 9)]
    lam = Fraction(5, 3)
    m = free_cumulants_to_moments([lam] * 6)
    # m_n = sum_pi lam^{|pi|}, graded by Narayana numbers
    for n in range(1, 7):
        narayana = sum(lam ** len(pi) for pi in noncrossing(n))
        assert m[n - 1] == narayana


def test_moment_cumulant_round_trip():
    rng = np.random.default_rng(7)
    m = rng.normal(size=10)
    back = free_cumulants_to_moments(free_cumulants([1.0, *m], m.size))
    assert np.max(np.abs(np.array(back) - m)) <= 1e-12
    frac = [Fraction(k, 7) for k in range(1, 11)]
    assert free_cumulants_to_moments(free_cumulants([1, *frac], 10)) == frac


def test_cumulants_via_partition_sum():
    # m_n = sum over NC(n) of prod kappa_{|block|}, checked exactly
    kappa = [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(5), Fraction(0), Fraction(7)]
    moments = free_cumulants_to_moments(kappa)
    for n in range(1, 7):
        assert moments[n - 1] == sum(over_blocks(kappa, pi) for pi in noncrossing(n))


def test_multiplicative_moments_match_noncrossing_sum():
    # m_n(ab) = sum over NC(n) of kappa_pi(a) m_{Kr(pi)}(b), brute force
    cases = [
        ([Fraction(2), Fraction(5), Fraction(-1, 3), Fraction(7), Fraction(1, 2)],
         [Fraction(-3, 2), Fraction(4), Fraction(0), Fraction(9, 5), Fraction(-2)]),
        ([Fraction(0), Fraction(3), Fraction(1, 7), Fraction(-4), Fraction(5, 3)],
         [Fraction(1, 2), Fraction(-1), Fraction(6), Fraction(2, 3), Fraction(8)]),
        ([Fraction(4, 3), Fraction(1, 5), Fraction(2), Fraction(-6), Fraction(1)],
         [Fraction(0), Fraction(2), Fraction(-5, 4), Fraction(3), Fraction(0)]),
    ]
    for ma, mb in cases:
        kappa_a = nc_cumulants(ma)
        want = [sum(over_blocks(kappa_a, pi) * over_blocks(mb, kreweras(pi, n))
                    for pi in noncrossing(n)) for n in range(1, 6)]
        assert free_multiplicative_moments(ma, mb, 5) == want


def test_multiplicative_moments_fuss_catalan():
    # two free Poisson(1) laws: Catalan moments, product moments C(3n, n)/(2n+1)
    catalan = [comb(2 * n, n) // (n + 1) for n in range(1, 9)]
    got = free_multiplicative_moments(catalan, catalan, 8)
    assert got == [comb(3 * n, n) // (2 * n + 1) for n in range(1, 9)]


def test_multiplicative_moments_against_scalar_scaling():
    # b = c * identity: m_n(ab) = c^n m_n(a)
    c = Fraction(3, 2)
    ma = [Fraction(x) for x in (1, 2, 4, 9, 21, 51, 127, 323)]
    mb = [c ** n for n in range(1, 9)]
    got = free_multiplicative_moments(ma, mb, 8)
    assert got == [c ** n * ma[n - 1] for n in range(1, 9)]


def test_multiplicative_moments_low_order_formulas():
    # m_1(ab) = m_1(a) m_1(b); m_2(ab) = k2(a) m1(b)^2 + m1(a)^2 m2(b)
    ma = [Fraction(2), Fraction(5), Fraction(14)]
    mb = [Fraction(3), Fraction(11), Fraction(45)]
    got = free_multiplicative_moments(ma, mb, 2)
    assert got[0] == ma[0] * mb[0]
    k2a = ma[1] - ma[0] ** 2
    assert got[1] == k2a * mb[0] ** 2 + ma[0] ** 2 * mb[1]


def test_multiplicative_moments_symmetric_in_trace():
    # tr((ab)^n) = tr((ba)^n): swapping the factors preserves every moment
    rng = np.random.default_rng(11)
    ma = list(1 + 0.3 * rng.normal(size=6))
    mb = list(1 + 0.3 * rng.normal(size=6))
    left = free_multiplicative_moments(ma, mb, 6)
    right = free_multiplicative_moments(mb, ma, 6)
    assert np.max(np.abs(np.array(left) - right)) <= 1e-10


def test_multiplicative_moments_validation():
    with pytest.raises(ValueError):
        free_multiplicative_moments([1] * 9, [1] * 9, 9)
    with pytest.raises(ValueError):
        free_multiplicative_moments([1, 1], [1, 1], 3)


@pytest.mark.parametrize("call", [
    lambda: free_cumulants([1, "a"], 1),
    lambda: free_cumulants(None, 1),
    lambda: free_cumulants([1, float("nan")], 1),
    lambda: free_cumulants([1, complex(0.5, float("inf"))], 1),
    lambda: free_cumulants_to_moments(["a"]),
    lambda: free_cumulants_to_moments([float("nan")]),
    lambda: free_multiplicative_moments(["a"], [1.0], 1),
    lambda: free_multiplicative_moments([1.0], [float("inf")], 1),
], ids=["string moment", "no moments", "nan moment", "infinite moment",
        "string cumulant", "nan cumulant", "string moment_a", "infinite moment_b"])
def test_entries_must_be_finite_numbers(call):
    # strings and None ended in a TypeError, and NaN came back as NaN
    with pytest.raises(BadParams, match="moments|cumulants"):
        call()
