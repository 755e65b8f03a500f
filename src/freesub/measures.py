"""Compactly supported probability measures on the line and the circle.

A measure is a list of atoms plus an optional absolutely continuous part
given by density samples on a uniform grid.  The continuous part is
*defined* by the trapezoid rule on those samples: every transform,
moment and convolution in this package integrates the stored data
exactly, so results are self-consistent to solver precision rather than
limited by how well the grid approximates a textbook density.

Standard families are constructed so that the trapezoid weights carry
the exact mass of each grid cell: the cell masses are differences of a
closed-form CDF.  Grids of families with square-root or
inverse-square-root edges are inset by half a cell so no sample sits on
a singularity; the mass of the two edge cells is folded into the first
and last samples, which therefore exceed the pointwise density there.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, int_in_range, real_above

#: default number of density samples for gridded families
DEFAULT_GRID_N = 2048

_MASS_TOL = 1e-9
_MIN_SAMPLES = 8  # density grids need at least this many samples
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Uniform sample grid: n points from lo to hi inclusive."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        int_in_range("grid size n", self.n, _MIN_SAMPLES)
        real_above("grid hi", self.hi, real_above("grid lo", self.lo))

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class _Measure:
    """Atoms plus an optional density on a GridSpec, flattened into one
    finite positive quadrature.  The subclasses differ only in where the
    grid nodes sit and how they are weighted (``_grid_quadrature``) and
    in how an atom's position is stored (``_position``)."""

    atoms: tuple = ()
    grid: GridSpec = None
    density: np.ndarray = None
    _nodes: np.ndarray = field(default=None, repr=False, compare=False)
    _weights: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        try:
            pairs = [(t, w) for t, w in self.atoms]
        except (TypeError, ValueError):  # not a sequence of pairs
            raise BadParams("atoms must be (position, weight) pairs, "
                            f"got {self.atoms!r}") from None
        atoms = []
        for t, w in pairs:
            w = real_above("atom weight", w, 0.0)
            if w > 1.0:
                raise BadParams(f"atom weight {w} outside (0, 1]")
            atoms.append((self._position(real_above("atom position", t)), w))
        atoms = tuple(atoms)
        if (self.grid is None) != (self.density is None):
            raise BadParams("grid and density must be given together")
        ts = np.array([t for t, _ in atoms], dtype=float)
        ws = np.array([w for _, w in atoms], dtype=float)
        density = self.density
        if density is not None:
            density = np.asarray(density, dtype=float)
            if density.ndim != 1 or density.size != self.grid.n:
                raise BadParams("density length must equal grid.n")
            if not np.all(np.isfinite(density)):
                raise BadParams("density has non-finite samples")
            if np.any(density < 0):
                raise BadParams("density samples must be nonnegative")
            density.setflags(write=False)
            nodes, cell = self._grid_quadrature()
            ts = np.concatenate([ts, nodes])
            ws = np.concatenate([ws, cell * density])
        if ts.size == 0:
            raise BadParams("measure needs atoms or a density")
        mass = float(ws.sum())
        if abs(mass - 1.0) > _MASS_TOL:
            raise BadParams(f"total mass {mass} deviates from 1 by > {_MASS_TOL}")
        ts.setflags(write=False)
        ws.setflags(write=False)
        for name, value in (("atoms", atoms), ("density", density),
                            ("_nodes", ts), ("_weights", ws)):
            object.__setattr__(self, name, value)

    def quadrature(self):
        """Nodes and weights of the measure as a finite positive sum."""
        return self._nodes, self._weights

    def to_dict(self) -> dict:
        return {
            "type": self._KIND,
            "atoms": [[t, w] for t, w in self.atoms],
            "grid": None if self.grid is None else
                {"lo": self.grid.lo, "hi": self.grid.hi, "n": self.grid.n},
            "density": [] if self.density is None else self.density.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise BadParams(f"a serialized measure is a JSON object, got {d!r}")
        if d.get("type") != cls._KIND:
            raise BadParams(f"expected type {cls._KIND!r}, got {d.get('type')!r}")
        grid = d.get("grid")
        try:
            g = None if grid is None else GridSpec(grid["lo"], grid["hi"], grid["n"])
        except (KeyError, TypeError):
            raise BadParams("grid must be an object with lo, hi and n") from None
        dens = d.get("density") or None
        return cls(atoms=d.get("atoms", ()), grid=g,
                   density=dens)


class LineMeasure(_Measure):
    """Probability measure on the real line: atoms + gridded density.

    The density's quadrature is the trapezoid rule on the grid points.
    """

    _KIND = "line"

    @staticmethod
    def _position(t):
        return t

    def _grid_quadrature(self):
        return self.grid.points(), self.grid.trapezoid_weights()

    def support(self):
        """Smallest interval containing all nodes."""
        return float(self._nodes.min()), float(self._nodes.max())

    def support_radius(self) -> float:
        lo, hi = self.support()
        return max(abs(lo), abs(hi))

    def moment(self, k: int) -> float:
        """k-th raw moment; k is capped at 32 to bound error growth."""
        k = int_in_range("k", k, 0, 32)
        t, w = self.quadrature()
        return float(np.sum(w * t**k))


class CircleMeasure(_Measure):
    """Probability measure on the unit circle.

    Atoms are (angle, weight) with angles reduced mod 2*pi.  The density
    grid is periodic: n samples at lo + k*(hi-lo)/n for k < n, each with
    quadrature weight (hi-lo)/n (the trapezoid rule on the periodic
    extension, which is spectrally accurate for smooth densities).
    """

    _KIND = "circle"

    @staticmethod
    def _position(angle):
        return angle % _TWO_PI

    def _grid_quadrature(self):
        lo, hi, n = self.grid.lo, self.grid.hi, self.grid.n
        return lo + (hi - lo) / n * np.arange(n), np.full(n, (hi - lo) / n)

    def unit_nodes(self) -> np.ndarray:
        """exp(i*theta) of the nodes: one read-only array, formed at
        first use and returned by every later call."""
        zeta = self.__dict__.get("_unit_nodes")
        if zeta is None:
            zeta = np.exp(1j * self._nodes)
            zeta.setflags(write=False)
            object.__setattr__(self, "_unit_nodes", zeta)
        return zeta

    def moment(self, k: int) -> complex:
        """k-th moment of the unit-circle variable; negative k allowed.

        Negative orders use the conjugate symmetry of moments of a real
        measure on the circle.
        """
        k = int_in_range("k", k, -32, 32)
        th, w = self.quadrature()
        m = complex(np.sum(w * np.exp(1j * abs(k) * th)))
        return m.conjugate() if k < 0 else m


def from_json(text: str):
    """Measure from ``json.dumps(m.to_dict())``; floats round-trip bit-exactly."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise BadParams(f"a serialized measure is a JSON object, got {d!r}")
    cls = {"line": LineMeasure, "circle": CircleMeasure}.get(d.get("type"))
    if cls is None:
        raise BadParams(f"unknown measure type {d.get('type')!r}")
    return cls.from_dict(d)


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------

def _cell_edges(lo, hi, n):
    """The n + 1 edges of n equal cells of [lo, hi]; n is a grid size."""
    return np.linspace(lo, hi, int_in_range("n", n, _MIN_SAMPLES) + 1)


def _measure_from_cell_masses(a, b, cell_mass):
    """Midpoint grid whose trapezoid rule reproduces the given cell masses.

    The support [a, b] is split into n equal cells; samples sit at cell
    midpoints and equal cell_mass/width, except the first and last which
    are doubled to compensate the half trapezoid weight at the ends.
    """
    cell_mass = np.asarray(cell_mass, float)
    n = cell_mass.size
    width = (b - a) / n
    samples = cell_mass / width
    samples[0] *= 2.0
    samples[-1] *= 2.0
    grid = GridSpec(a + 0.5 * width, b - 0.5 * width, n)
    return grid, samples


def _semicircle_std_cdf(x):
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + (0.5 * x * np.sqrt(4.0 - x * x) + 2.0 * np.arcsin(0.5 * x)) / _TWO_PI


def semicircle(center=0.0, variance=1.0, n=DEFAULT_GRID_N) -> LineMeasure:
    """Semicircle law with the given mean and variance.

    Support is [center - 2*sigma, center + 2*sigma]; the standard case
    has density sqrt(4 - t^2)/(2*pi).
    """
    s = math.sqrt(real_above("variance", variance, 0.0))
    center = real_above("center", center)
    a, b = center - 2.0 * s, center + 2.0 * s
    edges = _cell_edges(-2.0, 2.0, n)
    cdf = _semicircle_std_cdf(edges)
    mass = np.diff(cdf)
    mass /= mass.sum()
    grid, samples = _measure_from_cell_masses(a, b, mass)
    return LineMeasure(grid=grid, density=samples)


def arcsine(scale=1.0, n=DEFAULT_GRID_N) -> LineMeasure:
    """Arcsine law on [-2*scale, 2*scale], density 1/(pi*sqrt(4s^2 - t^2))."""
    scale = real_above("scale", scale, 0.0)
    a, b = -2.0 * scale, 2.0 * scale
    edges = _cell_edges(-1.0, 1.0, n)  # t/(2*scale)
    cdf = 0.5 + np.arcsin(edges) / math.pi
    mass = np.diff(cdf)
    mass /= mass.sum()
    grid, samples = _measure_from_cell_masses(a, b, mass)
    return LineMeasure(grid=grid, density=samples)


def marchenko_pastur(lam=1.0, n=DEFAULT_GRID_N) -> LineMeasure:
    """Free Poisson law of rate lam: all free cumulants equal lam.

    Density sqrt((b-t)(t-a))/(2*pi*t) on [a, b] with a,b = (1 -+ sqrt(lam))^2,
    plus an atom of mass 1-lam at zero when lam < 1.  In the angle theta
    of t = m - r*cos(theta), with m, r the centre and half-width of
    [a, b], the density is rational, and its CDF is
    (m*theta + r*sin(theta) - 2*sqrt(ab)*atan2(sqrt(b)*sin(theta/2),
    sqrt(a)*cos(theta/2))) / (2*pi), which reaches min(1, lam) at
    theta = pi; at lam = 1 (a = 0) the atan2 term vanishes.
    """
    lam = real_above("lam", lam, 0.0)
    a = (1.0 - math.sqrt(lam)) ** 2
    b = (1.0 + math.sqrt(lam)) ** 2
    m, r = 0.5 * (a + b), 0.5 * (b - a)
    theta = np.arccos(np.clip((m - _cell_edges(a, b, n)) / r, -1.0, 1.0))
    half = 0.5 * theta
    cdf = (m * theta + r * np.sin(theta) - 2.0 * math.sqrt(a * b)
           * np.arctan2(math.sqrt(b) * np.sin(half),
                        math.sqrt(a) * np.cos(half))) / _TWO_PI
    mass = np.diff(cdf)
    mass *= min(1.0, lam) / mass.sum()
    grid, samples = _measure_from_cell_masses(a, b, mass)
    atoms = ((0.0, 1.0 - lam),) if lam < 1.0 else ()
    return LineMeasure(atoms=atoms, grid=grid, density=samples)


def bernoulli_pm1() -> LineMeasure:
    """Symmetric two-point law at -1 and +1."""
    return LineMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))


def atomic(pairs) -> LineMeasure:
    """Purely atomic measure from (position, weight) pairs."""
    return LineMeasure(atoms=pairs)


def haar_circle(n=DEFAULT_GRID_N) -> CircleMeasure:
    """Uniform distribution on the unit circle."""
    grid = GridSpec(0.0, _TWO_PI, n)
    return CircleMeasure(grid=grid, density=np.full(n, 1.0 / _TWO_PI))


def circle_atoms(pairs) -> CircleMeasure:
    """Atomic measure on the circle from (angle, weight) pairs."""
    return CircleMeasure(atoms=pairs)


_FAMILIES = {
    "semicircle": semicircle,
    "bernoulli_pm1": bernoulli_pm1,
    "arcsine": arcsine,
    "marchenko_pastur": marchenko_pastur,
    "atomic": atomic,
    "haar_circle": haar_circle,
    "circle_atoms": circle_atoms,
}


def make_standard(name, *params, **kwargs):
    """Build a standard measure family by name.

    Known names: semicircle(center, variance), bernoulli_pm1,
    arcsine(scale), marchenko_pastur(lam), atomic(pairs), haar_circle,
    circle_atoms(pairs).  Gridded families accept an ``n=`` keyword
    (default 2048).
    """
    try:
        ctor = _FAMILIES[name]
    except KeyError:
        raise BadParams(f"no measure family named {name!r}") from None
    try:
        return ctor(*params, **kwargs)
    except TypeError as exc:
        raise BadParams(f"bad parameters for family {name!r}: {exc}") from None


def rotate(measure: CircleMeasure, phi: float) -> CircleMeasure:
    """Pushforward of an atomic circle measure under multiplication by e^{i*phi}."""
    if measure.density is not None:
        raise BadParams("rotation is implemented for atomic circle measures only")
    phi = real_above("phi", phi)
    return CircleMeasure(atoms=tuple((a + phi, w) for a, w in measure.atoms))


def measure_from_circle_moments(moments, n=DEFAULT_GRID_N) -> CircleMeasure:
    """Circle measure whose density is the Fejer (Cesaro) sum of the moments.

    ``moments[k]`` is the (k+1)-st moment.  The Fejer kernel keeps the
    reconstruction nonnegative for moments of a genuine measure; tiny
    negative rounding is clipped before normalization.
    """
    m = np.asarray(moments, dtype=complex)
    order = m.size
    grid = GridSpec(0.0, _TWO_PI, n)
    theta = grid.lo + (_TWO_PI / n) * np.arange(n)
    dens = np.full(n, 1.0 / _TWO_PI)
    for k in range(1, order + 1):
        taper = 1.0 - k / (order + 1.0)
        dens += (taper / math.pi) * np.real(m[k - 1] * np.exp(-1j * k * theta))
    dens = np.clip(dens, 0.0, None)
    dens /= dens.sum() * (_TWO_PI / n)
    return CircleMeasure(grid=grid, density=dens)
