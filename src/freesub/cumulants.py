"""Moment / free-cumulant combinatorics.

``free_cumulants`` and ``free_cumulants_to_moments`` convert between raw
moments and free cumulants with the recursion

    m_n = sum_{s=1}^{n} kappa_s * sum_{i_1+...+i_s = n-s} m_{i_1}...m_{i_s}

with m_0 = 1, evaluated with whatever scalar type the input carries
(floats, complex, Fraction).  Noncrossing partitions and the Kreweras
complement are enumerated exactly at small order; they feed the
multiplicative moment formula

    m_n(ab) = sum_{pi in NC(n)} kappa_pi(a) * m_{Kr(pi)}(b)

which serves as an independent cross-check on analytic convolutions.
"""

from functools import lru_cache
from itertools import combinations

from .errors import BadParams, _scalars, int_in_range

_MAX_NC_ORDER = 12
_MAX_PRODUCT_ORDER = 8


def _ordered_products(moments, s, n):
    """sum over i_1+...+i_s = n of m_{i_1}...m_{i_s}, with m_0 = 1."""
    # table[j] = sum over compositions of j into the parts seen so far
    table = [1] + list(moments[:n])
    acc = table[: n + 1]
    for _ in range(s - 1):
        acc = [sum(acc[i] * table[j - i] for i in range(j + 1)) for j in range(n + 1)]
    return acc[n]


def _moments_to_free_cumulants(moments):
    """Free cumulants kappa_1..kappa_K from raw moments m_1..m_K."""
    moments = list(moments)
    kappa = []
    for n in range(1, len(moments) + 1):
        rest = sum(
            kappa[s - 1] * _ordered_products(moments, s, n - s)
            for s in range(1, n)
        )
        kappa.append(moments[n - 1] - rest)
    return kappa


def free_cumulants(m, order: int):
    """Free cumulants kappa_1..kappa_order from moments m = (m_0=1, m_1, ...)."""
    m = _scalars("moments", m)
    if not m or m[0] != 1:
        raise BadParams("moment list must start with m_0 = 1")
    order = int_in_range("order", order, 1, 12)
    if len(m) < order + 1:
        raise BadParams("need moments up to the requested order")
    return _moments_to_free_cumulants(m[1:order + 1])


def free_cumulants_to_moments(cumulants):
    """Raw moments m_1..m_K from free cumulants kappa_1..kappa_K.

    Round-trips exactly with ``free_cumulants`` on exact scalar types.
    """
    cumulants = _scalars("cumulants", cumulants)
    moments = []
    for n in range(1, len(cumulants) + 1):
        moments.append(sum(
            cumulants[s - 1] * _ordered_products(moments, s, n - s)
            for s in range(1, n + 1)
        ))
    return moments


def _intervals(lo, hi):
    """Noncrossing partitions of the integer interval [lo, hi]."""
    if lo > hi:
        return [()]
    out = []
    pool = range(lo + 1, hi + 1)
    for k in range(hi - lo + 1):
        for rest in combinations(pool, k):
            block = (lo,) + rest
            pieces = [[]]
            bounds = list(block) + [hi + 1]
            for i in range(len(block)):
                gap = _intervals(bounds[i] + 1, bounds[i + 1] - 1)
                pieces = [p + list(g) for p in pieces for g in gap]
            out.extend(tuple([block] + p) for p in pieces)
    return out


@lru_cache(maxsize=None)
def noncrossing_partitions(n):
    """All noncrossing partitions of {1..n} as tuples of sorted blocks."""
    parts = _intervals(1, int_in_range("n", n, 1, _MAX_NC_ORDER))
    return tuple(tuple(sorted(p, key=min)) for p in parts)


@lru_cache(maxsize=None)
def _kreweras_table(n):
    """Kr(pi) for every pi in NC(n), from the permutation form pi^{-1} gamma.

    Reading each sorted block of pi as a cycle, the complement's blocks
    are the cycles of x -> pi^{-1}(gamma(x)) with gamma = (1 2 ... n)
    (Biane, Discrete Math. 1997).
    """
    table = {}
    for pi in noncrossing_partitions(n):
        pi_inv = [0] * (n + 1)
        for blk in pi:
            for prev, x in zip(blk[-1:] + blk[:-1], blk):
                pi_inv[x] = prev
        seen = [False] * (n + 1)
        cycles = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = pi_inv[x % n + 1]
            cycles.append(tuple(sorted(cycle)))
        table[pi] = tuple(cycles)
    return table


def free_multiplicative_moments(moments_a, moments_b, order: int):
    """Moments of the free product ab from the moments of a and b.

    Exact sum over NC(n) for each n up to the order, so the cost grows
    with the Catalan numbers; the order is capped at 8 (C_8 = 1430).
    """
    order = int_in_range("order", order, 1, _MAX_PRODUCT_ORDER)
    ma = _scalars("moments_a", moments_a)
    mb = _scalars("moments_b", moments_b)
    if len(ma) < order or len(mb) < order:
        raise BadParams("need at least `order` moments of each factor")
    kappa_a = _moments_to_free_cumulants(ma[:order])
    out = []
    for n in range(1, order + 1):
        table = _kreweras_table(n)
        total = 0
        for pi in noncrossing_partitions(n):
            term = 1
            for blk in pi:
                term *= kappa_a[len(blk) - 1]
            for blk in table[pi]:
                term *= mb[len(blk) - 1]
            total += term
        out.append(total)
    return out
