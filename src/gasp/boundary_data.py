"""Boundary data as finite sums of gridded derivative terms.

Data on the boundary is represented as f = sum_beta d^beta f_beta where
each f_beta is sampled on a compact uniform grid. Compact support makes
every weighted integral finite, so membership in the admissible class is
by construction. The module also holds the grid helpers the other
modules share, builds the sparse-bump data used to show that the growth
exponents are sharp, and reads/writes the JSON data file format.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .kernel import (HalfSpacePoint, ModelParams, MultiIndex, _each, _height, _integer,
                     _real)


class SchemaError(ValueError):
    """A data file violates the schema; the message names the field."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid with isotropic spacing.

    Parameters
    ----------
    origin : tuple of float
        Coordinates of the first sample point.
    spacing : float
        Distance between neighbouring samples, shared by all axes.
    shape : tuple of int
        Number of samples per axis. Singleton axes are allowed here
        (output grids may be single points); grids carrying quadrature
        data need at least 2 samples per axis, enforced by WeightedTerm.
    """

    origin: tuple
    spacing: float
    shape: tuple

    def __post_init__(self):
        origin = _each(self.origin, _real, "origin")
        shape = _each(self.shape, _integer, "shape", 1)
        if len(origin) != len(shape) or not origin:
            raise ValueError("origin and shape must have equal, nonzero length")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", _height(self.spacing, "spacing"))
        object.__setattr__(self, "shape", shape)

    @property
    def n(self):
        return len(self.origin)

    def axis_coords(self, axis):
        """Sample coordinates along one axis."""
        return self.origin[axis] + self.spacing * np.arange(self.shape[axis])

    @property
    def coords(self):
        """Sample coordinates of every axis, as a list of 1-D arrays."""
        return [self.axis_coords(axis) for axis in range(self.n)]


# Grid helpers. Each takes per-axis 1-D arrays, such as Grid.coords, and
# works on the row-major lattice they span.


def radius_sq(axes):
    """|x|^2 at every lattice point."""
    return sum(a * a for a in np.ix_(*axes))


def grid_points(axes):
    """The lattice points in row-major order, as an (n, N) array.

    Row i holds the i-th coordinate of every point, contiguous.
    """
    return np.array([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def trapezoid_weights(axes):
    """Trapezoid-rule weights at every lattice point.

    The product of one-dimensional rules built from the coordinates
    themselves, so an axis whose last step is shorter (a half-resolution
    axis that keeps its endpoint) is weighted correctly. Every axis needs
    at least 2 samples.
    """
    out = np.array(1.0)
    for c in axes:
        w = np.empty(c.size)
        w[0] = 0.5 * (c[1] - c[0])
        w[-1] = 0.5 * (c[-1] - c[-2])
        w[1:-1] = 0.5 * (c[2:] - c[:-2])
        out = np.multiply.outer(out, w)
    return out


@dataclass(frozen=True, eq=False)
class WeightedTerm:
    """One term d^beta f_beta of the boundary data.

    ``values`` holds the samples of f_beta on ``grid`` in row-major
    order; it is stored as a flat read-only float array.
    """

    beta: MultiIndex
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values)
        if vals.dtype.kind not in "iuf":
            raise ValueError("values must be real numbers, got %s entries" % vals.dtype)
        vals = vals.astype(float, copy=False).reshape(-1)
        if len(self.beta.components) != self.grid.n:
            raise ValueError("beta has %d components but the grid is %d-dimensional"
                             % (len(self.beta.components), self.grid.n))
        if any(m < 2 for m in self.grid.shape):
            # trapezoidal quadrature over the support needs a real extent
            raise ValueError("shape must be >= 2 on every axis of a term, got %s"
                             % (self.grid.shape,))
        expected = int(np.prod(self.grid.shape))
        if vals.size != expected:
            raise ValueError("values has %d entries, grid shape needs %d"
                             % (vals.size, expected))
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.grid.n

    @property
    def values_grid(self):
        """The samples reshaped to the grid shape."""
        return self.values.reshape(self.grid.shape)


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """A finite list of weighted terms plus the model parameters they target.

    An empty term list is valid and represents f = 0.
    """

    params_hint: ModelParams
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        for i, term in enumerate(terms):
            if term.n != self.params_hint.n:
                raise ValueError("terms[%d] is %d-dimensional and does not match n=%d"
                                 % (i, term.n, self.params_hint.n))
        object.__setattr__(self, "terms", terms)


def weight_alpha(p, x):
    """The closed-form weight w_alpha(x) = (1 + |x|^2)^((alpha+n+1)/2).

    Parameters
    ----------
    p : ModelParams
    x : array_like
        Point(s) in R^n; the last axis indexes coordinates. For n = 1 a
        bare scalar or a flat array of scalars is accepted.

    Returns
    -------
    float or ndarray
        w_alpha at each point; always >= 1, and exactly 1 at the origin.
    """
    arr = np.asarray(x, dtype=float)
    if p.n == 1 and (arr.ndim == 0 or arr.shape[-1] != 1):
        arr = arr[..., None]
    if arr.shape[-1] != p.n:
        raise ValueError("points have dimension %d, expected %d"
                         % (arr.shape[-1], p.n))
    s = np.sum(arr * arr, axis=-1)
    return (1.0 + s) ** (0.5 * p.mu)


def weighted_l1_norm(term, p):
    """Weighted L^1 norm of one term, int |f_beta(x)| / w_alpha(x) dx.

    Trapezoidal quadrature over the grid support. Nonnegative, and zero
    exactly when every sample is zero.

    Parameters
    ----------
    term : WeightedTerm
    p : ModelParams
        Supplies the weight exponent; its dimension must match the term.

    Returns
    -------
    float
    """
    if term.n != p.n:
        raise ValueError("term is %d-dimensional, params have n=%d"
                         % (term.n, p.n))
    coords = term.grid.coords
    winv = (1.0 + radius_sq(coords)) ** (-0.5 * p.mu)
    return float(np.sum(np.abs(term.values_grid) * winv
                        * trapezoid_weights(coords)))


@dataclass(frozen=True)
class SubcriticalCase:
    """Exponent pair with beta + gamma strictly below alpha + n + 1."""

    beta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _real(self.beta, "beta"))
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma"))


@dataclass(frozen=True)
class CriticalCase:
    """Exponents on the critical line beta + gamma = alpha + n + 1.

    Only gamma is free (it must satisfy gamma < n); beta is implied.
    """

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma"))


_TENT_POINTS = 65  # per axis: spacing rho/32 over the diameter 2*rho


def case_exponents(p, case):
    """Validate a sharpness case; return (beta, gamma, rho_exp, height_extra).

    The schedule the case prescribes is centres a_k = e^k, radii
    rho_k = k^{-rho_exp}, and log-heights k*(alpha+n+1) + height_extra*log k.
    On the critical line beta is implied by beta + gamma = alpha + n + 1.
    """
    if isinstance(case, SubcriticalCase):
        if not case.beta + case.gamma < p.mu:
            raise ValueError(
                "subcritical case needs beta + gamma < alpha + n + 1 "
                "(%g + %g >= %g)" % (case.beta, case.gamma, p.mu))
        return case.beta, case.gamma, 2.0, 0.0
    if isinstance(case, CriticalCase):
        if not case.gamma < p.n:
            raise ValueError("critical case needs gamma < n (%g >= %d)"
                             % (case.gamma, p.n))
        eps = p.n - case.gamma
        rho_exp = (1.0 + eps) / eps
        return p.mu - case.gamma, case.gamma, rho_exp, case.gamma * rho_exp
    raise TypeError("case must be SubcriticalCase or CriticalCase")


def sharpness_data(p, case, k_max):
    """Sparse tent bumps showing the growth exponents cannot be lowered.

    Bump k is the tent f_k * max(0, 1 - |x - a_k e1| / rho_k) centred at
    a_k = e^k on the first axis, sampled with spacing rho_k / 32. In the
    subcritical case f_k = e^{k(alpha+n+1)} and rho_k = k^{-2}; on the
    critical line, with eps = n - gamma, the heights gain a factor
    k^{gamma(1+eps)/eps} and rho_k = k^{-(1+eps)/eps}. The balls are
    disjoint since consecutive centres are separated by e^k(e-1) > 2.

    Parameters
    ----------
    p : ModelParams
    case : SubcriticalCase or CriticalCase
    k_max : int
        Number of bumps, between 1 and 12; heights grow like
        e^{k(alpha+n+1)}, so larger k buys nothing but overflow.

    Returns
    -------
    (BoundaryData, list of HalfSpacePoint)
        The bumps plus the evaluation points (a_k e1, rho_k) along which
        the scaled growth quantity stays bounded away from zero.
    """
    if _integer(k_max, "k_max", 1) > 12:
        raise ValueError("k_max must be between 1 and 12")
    _, _, rho_exp, height_extra = case_exponents(p, case)

    terms = []
    points = []
    for k in range(1, k_max + 1):
        log_height = k * p.mu + height_extra * math.log(k)
        if log_height > 700.0:
            raise ValueError("bump %d height exp(%.1f) overflows doubles; "
                             "reduce k_max or the exponents" % (k, log_height))
        height = math.exp(log_height)
        rho = float(k) ** -rho_exp
        if rho * height == 0.0 or not math.isfinite(rho * 2.0 / (_TENT_POINTS - 1)):
            raise ValueError("bump %d radius %.2e underflows the grid" % (k, rho))
        center = math.exp(k)
        spacing = 2.0 * rho / (_TENT_POINTS - 1)
        origin = (center - rho,) + (-rho,) * (p.n - 1)
        grid = Grid(origin=origin, spacing=spacing, shape=(_TENT_POINTS,) * p.n)

        offsets = grid.coords
        offsets[0] = offsets[0] - center
        dist_sq = radius_sq(offsets)
        tent = height * np.maximum(0.0, 1.0 - np.sqrt(dist_sq) / rho)
        terms.append(WeightedTerm(beta=MultiIndex((0,) * p.n), grid=grid,
                                  values=tent.reshape(-1)))
        points.append(HalfSpacePoint(x=(center,) + (0.0,) * (p.n - 1), y=rho))
    return BoundaryData(params_hint=p, terms=tuple(terms)), points


# ---------------------------------------------------------------------------
# file I/O

_TOP_FIELDS = ("alpha", "n", "terms")
_TERM_FIELDS = ("beta", "origin", "spacing", "shape", "values")
_LIST_FIELDS = ("beta", "origin", "shape", "values")


def _fields(obj, names, path):
    """The values of the JSON object ``obj``, whose keys must be ``names``.

    Fields of _LIST_FIELDS must hold flat lists of number tokens.
    """
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % path)
    odd = [k for k in obj if k not in names] + [k for k in names if k not in obj]
    if odd:
        raise SchemaError("%s: %s field %r"
                          % (path, "unknown" if odd[0] in obj else "missing", odd[0]))
    for key in names:
        # json gives bool for true/false, str, None for null, list if nested
        if key in _LIST_FIELDS and not (isinstance(obj[key], list)
                                        and set(map(type, obj[key])) <= {int, float}):
            raise SchemaError("%s.%s: expected a flat list of numbers" % (path, key))
    return [obj[key] for key in names]


def _build(path, make, *args):
    # make(*args), its ValueError a SchemaError that leads with the field path
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(path + str(exc)) from exc


def _term(beta, origin, spacing, shape, values):
    return WeightedTerm(MultiIndex(beta), Grid(origin, spacing, shape),
                        np.asarray(values, dtype=float))


def save_data(data, path):
    """Write BoundaryData to a JSON file (see load_data for the schema)."""
    doc = {
        "alpha": data.params_hint.alpha,
        "n": data.params_hint.n,
        "terms": [
            {
                "beta": list(t.beta.components),
                "origin": list(t.grid.origin),
                "spacing": t.grid.spacing,
                "shape": list(t.grid.shape),
                "values": t.values.tolist(),
            }
            for t in data.terms
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_data(path):
    """Read BoundaryData from a JSON file.

    The document must be an object with exactly the fields ``alpha``,
    ``n`` and ``terms`` (a list); each term an object with exactly
    ``beta``, ``origin``, ``spacing``, ``shape`` and ``values``, with
    ``values`` holding product(shape) row-major samples. Unknown fields
    are rejected. ``beta``, ``origin``, ``shape`` and ``values`` are flat
    lists of number tokens: never true, false, a string, null or a nested
    list. Every other rule is the value types' own, with their messages
    after the field path: alpha a finite real > -1; n, beta and shape
    integers (2.0 is not one) with n >= 1, beta >= 0 of order <= 4 and
    shape >= 2; lengths n; spacing a finite real > 0; finite values.
    Floats survive the round trip bit-exactly.

    Raises
    ------
    SchemaError
        On any schema violation; the message names the offending field.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("not valid JSON: %s" % exc) from exc
    alpha, n, entries = _fields(doc, _TOP_FIELDS, "top level")
    params = _build("", ModelParams, alpha, n)
    if not isinstance(entries, list):
        raise SchemaError("terms: expected a list")
    terms = tuple(_build("terms[%d]." % i, _term,
                         *_fields(entry, _TERM_FIELDS, "terms[%d]" % i))
                  for i, entry in enumerate(entries))
    return _build("", BoundaryData, params, terms)
