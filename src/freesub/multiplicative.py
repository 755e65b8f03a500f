"""Free multiplicative convolution of unitary elements (the unit disk side).

Two solvers live here.  ``disk_subordination_solve`` inverts the circle
resolvent K_nu on the open disk: given a trace value
target = tau((u - c)^{-1}) it finds g with K_nu(g) = target, the scalar
shadow of the disk subordination of resolvents.  ``free_mult_convolve_unitary``
computes the moments of uv for free unitaries u ~ mu, v ~ nu through the
eta-transform fixed point

    omega1(z) = z * eta_nu(Q(omega1)) / Q(omega1),
    Q(w)      = z * eta_mu(w) / w,

with eta_{mu x nu}(z) = eta_mu(omega1(z)) and omega1*omega2 = z*eta(z).
Since eta maps the disk to itself with eta(0) = 0, Schwarz gives
|omega1| <= |z|, so the iteration is a strict self-map of a compact
subdisk and plain iteration converges geometrically for |z| < 1.

Both solvers evaluate their transforms through the chunked node-sum
kernel ``transforms._node_sums``: K and K' in one call for the disk
Newton solve, eta through ``transforms.eta_transform``.  The kernel
splits a large call over the usable cores with the bits of a
single-threaded run; there is no setting for it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransform, NoConvergence, _complex_points, \
    int_in_range
from .measures import CircleMeasure, measure_from_circle_moments
from .transforms import _node_sums, eta_transform

_MAX_ORDER = 16
_RATIO_FLOOR = 1e-9
_MAX_HALVINGS = 40
_DISK_TOL = 1e-12      # disk Newton solve: residual target
_DISK_MAX_ITER = 100   # and step budget per starting point
_ETA_TOL = 1e-13       # eta fixed point, sampled on _ETA_NODES points
_ETA_MAX_ITER = 400    # of the circle |z| = _ETA_RADIUS
_ETA_RADIUS = 0.5
_ETA_NODES = 256
# restart points of the disk Newton solve: three rings of 16, staggered
_RESTARTS = np.concatenate([
    r * np.exp(2j * math.pi * (np.arange(16) + 0.5 * i) / 16)
    for i, r in enumerate((0.4, 0.7, 0.9))])


@dataclass(frozen=True)
class DiskSubordinationEval:
    """Solved disk subordination value for one trace target."""

    target: complex
    g: complex
    residual: float
    ball_margin: float


def _k_and_derivative(nu, g):
    """K(g) = integral 1/(zeta - g) dnu and K'(g) = integral 1/(zeta - g)^2 dnu."""
    s, ds = _node_sums(g, nu.unit_nodes(), nu.quadrature()[1])
    return -s, -ds


def _clamp_into_disk(g, step):
    """Scale the Newton step so the iterate stays inside the open disk.

    The solution is guaranteed inside the disk, so a step that would
    exit is shortened along its own direction to land at the radius
    halfway between |g| and the boundary.
    """
    r_target = 0.5 * (1.0 + abs(g))
    # |g + s*step| = r_target: positive root of the quadratic in s
    a = abs(step) ** 2
    b = 2.0 * (g.conjugate() * step).real
    c = abs(g) ** 2 - r_target**2
    disc = b * b - 4.0 * a * c
    s = (-b + math.sqrt(max(disc, 0.0))) / (2.0 * a)
    return g + s * step


def _disk_newton(nu, target, g):
    """Newton on K(g) = target from g, kept inside the open disk.

    A step that would leave the disk is shortened to stay inside, then
    halved until |K(g) - target| decreases.  Returns (g, residual);
    raises NoConvergence when no decrease is found or the budget runs
    out, which happens when the path from g leads to a root of
    K - target outside the disk.
    """
    k, kp = map(complex, _k_and_derivative(nu, g))
    resid = abs(k - target)
    it = 0
    while resid > _DISK_TOL:
        if it == _DISK_MAX_ITER:
            raise NoConvergence("disk subordination Newton stalled",
                                iterations=it, residual=resid, point=g)
        it += 1
        if abs(kp) < 1e-300:
            raise NoConvergence("flat resolvent derivative", iterations=it,
                                residual=resid, point=g)
        step = -(k - target) / kp
        cand = g + step
        if abs(cand) >= 1.0:
            cand = _clamp_into_disk(g, step)
        for _ in range(_MAX_HALVINGS):
            k_c, kp_c = map(complex, _k_and_derivative(nu, cand))
            if abs(k_c - target) < resid:
                break
            cand = g + 0.5 * (cand - g)
        else:
            raise NoConvergence(
                "disk subordination line search found no decrease",
                iterations=it, residual=resid, point=g)
        g, k, kp = cand, k_c, kp_c
        resid = abs(k - target)
    return g, resid


def _starting_points(nu, target):
    """g = 0, then the restart points, best |K(g) - target| first."""
    yield 0.0 + 0.0j
    k, _ = _k_and_derivative(nu, _RESTARTS)
    yield from _RESTARTS[np.argsort(np.abs(k - target), kind="stable")]


def disk_subordination_solve(nu: CircleMeasure, target) -> DiskSubordinationEval:
    """Solve K_nu(g) = target for g in the open unit disk.

    Newton from g = 0 with the exact quadrature derivative
    K'(g) = integral (zeta - g)^{-2} dnu, globalized by backtracking on
    |K(g) - target| and kept inside the disk.  K - target is analytic,
    so |K - target| has no local minimum off its zeros, but K is not
    injective: the descent path from 0 can lead to a root outside the
    disk and stall at the boundary.  The solve then restarts from fixed
    points spread over the disk, best residual first, each with its own
    budget of _DISK_MAX_ITER Newton steps.  A constant K (Haar measure,
    where K vanishes identically on the disk) makes every g a solution;
    that degeneracy is detected up front and surfaced as a typed error.
    """
    target = _complex_points("target", target, scalar=True)
    probes = np.array([0.0, 0.3, -0.3, 0.3j])
    k_probe, _ = _k_and_derivative(nu, probes)
    if np.ptp(k_probe.real) + np.ptp(k_probe.imag) < 1e-12 * (1 + abs(k_probe[0])):
        raise DegenerateTransform(
            "circle resolvent is constant on the disk; g is not identifiable")
    best = None
    for g0 in _starting_points(nu, target):
        try:
            g, resid = _disk_newton(nu, target, complex(g0))
        except NoConvergence as exc:
            if best is None or exc.residual < best.residual:
                best = exc
            continue
        return DiskSubordinationEval(
            target=target, g=g, residual=resid, ball_margin=1.0 - abs(g))
    raise NoConvergence(
        f"disk subordination Newton stalled from all {1 + _RESTARTS.size} "
        f"starting points; best: {best}",
        iterations=best.iterations, residual=best.residual, point=best.point)


def _eta_ratio(measure, q, first_moment):
    """eta(q)/q with its removable singularity at q = 0."""
    q = np.asarray(q, dtype=complex)
    out = np.full(q.shape, first_moment, dtype=complex)
    big = np.abs(q) > _RATIO_FLOOR
    if np.any(big):
        qa = q[big]
        out[big] = np.asarray(eta_transform(measure, qa)) / qa
    return out


@dataclass(frozen=True)
class MultConvolution:
    """Moments of mu x nu with per-moment cross-radius certificates."""

    moments: tuple
    certificates: tuple
    fixed_point_residual: float

    def measure(self, n=2048) -> CircleMeasure:
        """Fejer reconstruction of the density from the moments."""
        return measure_from_circle_moments(self.moments, n=n)


def _moments_on_circle(mu, nu, radius, order):
    """Moments 1..order of mu x nu read off psi on |z| = radius, and the
    last residual of the omega1 fixed point there."""
    theta = (np.arange(_ETA_NODES) + 0.5) * (2.0 * math.pi / _ETA_NODES)
    z = radius * np.exp(1j * theta)
    m1_mu = complex(mu.moment(1))
    m1_nu = complex(nu.moment(1))
    w = np.zeros(_ETA_NODES, dtype=complex)
    resid = np.inf
    for _ in range(_ETA_MAX_ITER):
        q = z * _eta_ratio(mu, w, m1_mu)
        t_val = z * _eta_ratio(nu, q, m1_nu)
        resid = float(np.max(np.abs(t_val - w)))
        w = t_val
        if resid <= _ETA_TOL:
            break
    else:
        raise NoConvergence("eta-transform fixed point stalled",
                            iterations=_ETA_MAX_ITER, residual=resid)
    eta = _eta_ratio(mu, w, m1_mu) * w
    psi = eta / (1.0 - eta)
    theta = np.angle(z)
    moments = [complex(np.sum(psi * np.exp(-1j * k * theta))
                       / (_ETA_NODES * radius**k)) for k in range(1, order + 1)]
    return moments, resid


def free_mult_convolve_unitary(mu: CircleMeasure, nu: CircleMeasure,
                               order=8) -> MultConvolution:
    """Moments of the distribution of uv for free unitaries u ~ mu, v ~ nu.

    The subordinated eta-transform is sampled on |z| = _ETA_RADIUS
    inside the disk and the psi power series coefficients are read off
    by the discrete Fourier transform (geometric accuracy, since psi is
    analytic up to |z| = 1).  The same extraction at a second radius
    provides a per-moment consistency certificate.

    Zero-mean factors need no special casing: eta(q)/q extends over its
    removable singularity, and when both means vanish the scheme
    correctly collapses to uniform (all moments zero) -- an alternating
    product of centered free factors has zero trace.
    """
    order = int_in_range("order", order, 1, _MAX_ORDER)
    moments, resid = _moments_on_circle(mu, nu, _ETA_RADIUS, order)
    check, resid2 = _moments_on_circle(mu, nu, 0.7 * _ETA_RADIUS, order)
    certs = tuple(abs(a - b) for a, b in zip(moments, check))
    return MultConvolution(moments=tuple(moments), certificates=certs,
                           fixed_point_residual=max(resid, resid2))
