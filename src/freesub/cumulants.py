"""Moment / free-cumulant combinatorics on truncated power series.

``free_cumulants`` and ``free_cumulants_to_moments`` convert between raw
moments and free cumulants with the recursion

    m_n = sum_{s=1}^{n} kappa_s * sum_{i_1+...+i_s = n-s} m_{i_1}...m_{i_s}

with m_0 = 1, evaluated with whatever scalar type the input carries
(floats, complex, Fraction).  ``free_multiplicative_moments`` reads the
multiplicative subordination equation (Biane, Math. Z. 1998) on series:
with psi(w) = sum_n m_n w^n and eta = psi / (1 + psi), the product ab has
psi_ab = psi_a o omega, where omega = z R_b(z R_a(omega)) and R = eta / w.
It is an independent cross-check on the analytic convolutions.
"""

from .errors import BadParams, _scalars, int_in_range

_MAX_PRODUCT_ORDER = 8


def _mul(p, q):
    """p * q truncated to len(p) terms; q has at least as many."""
    return [sum(p[i] * q[j - i] for i in range(j + 1)) for j in range(len(p))]


def _ordered_products(moments, s, n):
    """sum over i_1+...+i_s = n of m_{i_1}...m_{i_s}, with m_0 = 1."""
    # table[j] = sum over compositions of j into the parts seen so far
    table = [1] + list(moments[:n])
    acc = table[: n + 1]
    for _ in range(s - 1):
        acc = _mul(acc, table)
    return acc[n]


def free_cumulants(m, order: int):
    """Free cumulants kappa_1..kappa_order from moments m = (m_0=1, m_1, ...)."""
    m = _scalars("moments", m)
    if not m or m[0] != 1:
        raise BadParams("moment list must start with m_0 = 1")
    order = int_in_range("order", order, 1, 12)
    if len(m) < order + 1:
        raise BadParams("need moments up to the requested order")
    moments = m[1:order + 1]
    kappa = []
    for n in range(1, order + 1):
        rest = sum(
            kappa[s - 1] * _ordered_products(moments, s, n - s)
            for s in range(1, n)
        )
        kappa.append(moments[n - 1] - rest)
    return kappa


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


def _compose(f, x):
    """f(x) truncated to len(x) terms, by Horner; x[0] must be 0."""
    out = [0] * len(x)
    for c in reversed(f[:len(x)]):
        out = _mul(out, x)
        out[0] += c
    return out


def _eta_over_w(m):
    """R(w) = eta(w) / w = c / (1 + w c) to len(m) terms, where
    c(w) = sum_k m_{k+1} w^k and 1 / (1 + t) is the alternating series."""
    alternating = [(-1) ** k for k in range(len(m))]
    return _mul(m, _compose(alternating, [0] + m[:-1]))


def free_multiplicative_moments(moments_a, moments_b, order: int):
    """Moments m_1..m_order of the free product ab from m_1..m_order of a
    and of b; ``order`` must be 1..8.

    Solves omega = z R_b(z R_a(omega)) on series truncated at z^order,
    starting from omega = 0, and returns the coefficients of
    psi_ab = psi_a o omega.  A change in omega at z^k moves the right-hand
    side only from z^(k+2) on, so each pass fixes two more coefficients.
    The result equals the noncrossing sum
    m_n(ab) = sum_{pi in NC(n)} kappa_pi(a) m_{Kr(pi)}(b): exact on
    Fraction input and valid for any means, zero included.
    """
    order = int_in_range("order", order, 1, _MAX_PRODUCT_ORDER)
    ma = _scalars("moments_a", moments_a)[:order]
    mb = _scalars("moments_b", moments_b)[:order]
    if len(ma) < order or len(mb) < order:
        raise BadParams("need at least `order` moments of each factor")
    ra, rb = _eta_over_w(ma), _eta_over_w(mb)
    omega = [0] * (order + 1)
    for _ in range((order + 1) // 2):
        # z R_a(omega) is needed to z^(order-1), so omega to z^(order-2)
        omega = [0] + _compose(rb, [0] + _compose(ra, omega[:order - 1]))
    return _compose([0] + ma, omega)[1:]
