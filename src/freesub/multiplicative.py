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

Both solvers read their transforms from one helper,
``transforms._circle_cauchy``, over the node tables the measure stores
once, for zeta and for conj zeta (``transforms._node_table``): K and K'
from one node sum for the disk Newton solve (the root rule of
``_newton.solve``), and for each eta ratio K
at the conjugate point, which neither cancels nor is singular at 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _newton
from .errors import DegenerateTransform, NoConvergence, _complex_points, \
    int_in_range
from .measures import CircleMeasure, _require, measure_from_circle_moments
from .transforms import _circle_cauchy

_MAX_ORDER = 16
_DISK_TOL = 1e-12      # disk Newton solve: residual target
_DISK_MAX_ITER = 100   # and residual checks per starting point
_ETA_TOL = 1e-13       # eta fixed point, sampled on _ETA_NODES points
_ETA_MAX_ITER = 400    # of each circle |z| = r of _ETA_RADII
_ETA_RADII = (0.5, 0.35)  # moments, then their certificates
_ETA_NODES = 256
# starting points of the disk Newton solve, in order: 0, then three
# staggered rings of 16
_STARTS = np.concatenate([[0.0]] + [
    r * np.exp(2j * math.pi * (np.arange(16) + 0.5 * i) / 16)
    for i, r in enumerate((0.4, 0.7, 0.9))])


@dataclass(frozen=True)
class DiskSubordinationEval:
    """Solved disk subordination value for one trace target: g is a
    preimage of the target under K_nu, one of several where the disk
    holds more than one."""

    target: complex
    g: complex
    residual: float
    ball_margin: float


def disk_subordination_solve(nu: CircleMeasure, target) -> DiskSubordinationEval:
    """Solve K_nu(g) = target for g in the open unit disk.

    Newton from g = 0 with the exact quadrature derivative
    K'(g) = integral (zeta - g)^{-2} dnu, globalized by the root rule of
    ``_newton.solve``: each step is halved until it stays inside the
    disk and lowers |K(g) - target|, so K is never evaluated outside it.
    K - target is analytic, so |K - target| has no local minimum off
    its zeros, but K is not injective: the descent path from 0 can lead
    to a root outside the disk and stall at the boundary.  The solve
    then restarts from the fixed points of _STARTS, in order, each with
    its own budget of _DISK_MAX_ITER iterations.  Where the disk holds
    more than one preimage of ``target``, the solve returns one of them,
    the first its starts reach: the contract is a preimage g with
    |K(g) - target| <= _DISK_TOL, not a particular one.  A constant K
    (Haar measure, where K vanishes identically on the disk) makes every
    g a solution; that degeneracy is detected up front and surfaced as a
    typed error.
    """
    _require(CircleMeasure, nu)
    target = _complex_points("target", target, scalar=True)
    probes = np.array([0.0, 0.3, -0.3, 0.3j])
    k_probe, _ = _circle_cauchy(nu, probes)
    if np.ptp(k_probe.real) + np.ptp(k_probe.imag) < 1e-12 * (1 + abs(k_probe[0])):
        raise DegenerateTransform(
            "circle resolvent is constant on the disk; g is not identifiable")

    def evaluate(at, g):
        k, kp = _circle_cauchy(nu, g)
        return np.abs(k - target), k - target, kp

    failed = []
    for g0 in _STARTS:
        try:
            g, (res, _, _), _ = _newton.solve(
                evaluate,
                lambda g, ev: _newton.scalar_step(g, ev[1], ev[2], 1e-300),
                lambda at, g: np.abs(g) < 1.0, lambda *_: _DISK_TOL,
                np.array([g0], dtype=complex), _DISK_MAX_ITER,
                np.array([target]), "disk subordination Newton",
                fixed_point=False)
            g = complex(g[0])
            return DiskSubordinationEval(target, g, float(res[0]),
                                         1.0 - abs(g))
        except NoConvergence as exc:
            failed.append(exc)
    best = min(failed, key=lambda exc: exc.residual)
    raise NoConvergence(
        f"disk subordination Newton stalled from all {_STARTS.size} "
        f"starting points; best: {best}",
        iterations=best.iterations, residual=best.residual, point=target)


def _eta_ratio(measure, q):
    """eta(q)/q = c/(1 + q*c) with c = conj K(conj q); c(0) = m_1."""
    c, _ = _circle_cauchy(measure, q, conjugate=True)
    return c / (1.0 + q * c)


@dataclass(frozen=True)
class MultConvolution:
    """Moments of mu x nu with per-moment cross-radius certificates."""

    moments: tuple
    certificates: tuple
    fixed_point_residual: float

    def measure(self, n=2048) -> CircleMeasure:
        """Fejer reconstruction of the density from the moments."""
        return measure_from_circle_moments(self.moments, n=n)


def _omega1(mu, nu, z):
    """omega1 at the points z by Picard iteration from 0, and the largest
    last step over all of them."""
    w = np.zeros(1, dtype=complex)  # every point starts at 0: one K read
    for _ in range(_ETA_MAX_ITER):
        w, last = z * _eta_ratio(nu, z * _eta_ratio(mu, w)), w
        step = np.abs(w - last)
        resid = float(np.max(step))
        if resid <= _ETA_TOL:
            return w, resid
    raise NoConvergence("eta-transform fixed point stalled",
                        iterations=_ETA_MAX_ITER, residual=resid,
                        point=complex(z.flat[np.argmax(step)]))


def free_mult_convolve_unitary(mu: CircleMeasure, nu: CircleMeasure,
                               order=8) -> MultConvolution:
    """Moments of the distribution of uv for free unitaries u ~ mu, v ~ nu.

    omega1 is solved on _ETA_NODES points of each circle |z| = r of
    _ETA_RADII in one batch, and psi_{mu x nu} = psi_mu(omega1) is read
    off by the discrete Fourier transform (geometric accuracy, since psi
    is analytic up to |z| = 1).  The moments come from the first radius;
    the second gives a per-moment consistency certificate.

    Zero-mean factors need no special casing: eta(q)/q = c/(1 + q*c) is
    analytic at q = 0, and when both means vanish the scheme correctly
    collapses to uniform (all moments zero) -- an alternating product of
    centered free factors has zero trace.
    """
    _require(CircleMeasure, mu, nu)
    order = int_in_range("order", order, 1, _MAX_ORDER)
    theta = (np.arange(_ETA_NODES) + 0.5) * (2.0 * math.pi / _ETA_NODES)
    radii = np.array(_ETA_RADII)[:, None]
    w, resid = _omega1(mu, nu, radii * np.exp(1j * theta))
    psi = w * _circle_cauchy(mu, w, conjugate=True)[0]
    k = np.arange(1, order + 1)
    rows = (psi @ np.exp(-1j * np.outer(theta, k))) / (_ETA_NODES * radii**k)
    moments, check = (tuple(map(complex, row)) for row in rows)
    certs = tuple(abs(a - b) for a, b in zip(moments, check))
    return MultConvolution(moments=moments, certificates=certs,
                           fixed_point_residual=resid)
