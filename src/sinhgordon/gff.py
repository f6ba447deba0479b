"""Free-field sampler on the unit cylinder.

The field on a time slice decomposes into a zero mode (constant plus a
Brownian motion in slice time) and independent Ornstein-Uhlenbeck Fourier
modes with mean-reversion rate n and unit stationary variance.  All updates
use the exact transition law, so mode truncation is the only field
approximation.  Radius R > 0 is handled upstream by the substitution
t -> t/R, theta -> theta/R together with the coupling rescaling in
:mod:`sinhgordon.params`; there is no R-specific code here.
"""

from __future__ import annotations

import functools
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoincidentPoints,
    EmptyGrid,
    EpsilonGridMismatch,
    GridSpanMismatch,
    IndexOutOfRange,
    NegativeTime,
)
from .parallel import generator


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, dt, 2*dt, ..., n_steps*dt.

    The one place where times become grid rows: :meth:`spanning` builds the
    grid of a span and :meth:`index_of` finds a time's row.  Both raise
    :class:`GridSpanMismatch` for a span or time that is not a node.
    """

    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise EmptyGrid(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise EmptyGrid(f"n_steps must be >= 1, got {self.n_steps}")

    @classmethod
    def spanning(cls, span: float, dt: float) -> TimeGrid:
        """The grid 0, dt, ..., span; ``span`` must be a whole number of steps."""
        n_steps = int(round(span / dt))
        if abs(n_steps * dt - span) > 1e-9:
            raise GridSpanMismatch(f"span {span} is not a multiple of dt={dt}")
        return cls(dt, n_steps)

    @classmethod
    def of_half_heights(cls, t_half_values, dt: float) -> tuple[TimeGrid, list[int]]:
        """The grid of the cylinder [0, 2 max(T)] and the row of each span 2T.

        An off-grid half-height is named as given, not by its span 2T.
        """
        th = max(t_half_values)
        try:
            grid = cls.spanning(2.0 * th, dt)
            rows = []
            for th in t_half_values:
                rows.append(grid.index_of(2.0 * th))
        except GridSpanMismatch:
            raise GridSpanMismatch(f"half-height T={th} is not on the grid "
                                   f"(2T must be a multiple of dt={dt})") from None
        return grid, rows

    @property
    def span(self) -> float:
        return self.dt * self.n_steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Grid index of a time that must sit on (or within tol of) a node."""
        k = int(round(t / self.dt))
        if not (0 <= k <= self.n_steps) or abs(k * self.dt - t) > tol * max(1.0, abs(t)):
            raise GridSpanMismatch(f"time {t} is not on the grid (dt={self.dt}, K={self.n_steps})")
        return k


@dataclass
class CircleField:
    """One time slice: zero mode c and mode coordinates (x_n, y_n), n=1..N."""

    zero_mode: float
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1 or self.xs.size < 1:
            raise ValueError("xs and ys must be equal-length 1-d arrays with N >= 1")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("mode coordinates must be finite")

    @property
    def n_modes(self) -> int:
        return self.xs.size


@dataclass
class PathSample:
    """One realization of (B_t, modes) on a uniform grid.

    ``brownian[0] == 0`` and ``mode_x[0], mode_y[0]`` equal the initial field.
    The zero-mode constant c travels in ``initial.zero_mode``.
    """

    grid: TimeGrid
    brownian: np.ndarray          # (K+1,)
    mode_x: np.ndarray            # (K+1, N)
    mode_y: np.ndarray            # (K+1, N)
    initial: CircleField = field(repr=False)

    @property
    def n_modes(self) -> int:
        return self.mode_x.shape[1]


def ou_step_coeffs(n, dt):
    """Exact one-step transition (decay, noise std) for the rate-n mode.

    x(t+dt) = x(t)*decay + std*xi with xi ~ N(0,1); composable exactly:
    two half steps reproduce one full step in mean and variance.
    """
    n = np.asarray(n, dtype=float)
    decay = np.exp(-n * dt)
    std = np.sqrt(-np.expm1(-2.0 * n * dt))
    return decay, std


def sample_circle_field(n_modes: int, mode="stationary", seed=None) -> CircleField:
    """Draw a stationary slice field.

    ``mode`` must be ``"stationary"``: all 2N coordinates are drawn i.i.d.
    standard normal and the zero-mode placeholder is 0 (the constant c is
    supplied separately when evolving).
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if mode != "stationary":
        raise ValueError(f"unknown sampling mode: {mode!r}")
    rng = generator(seed)
    xs = rng.standard_normal(n_modes)
    ys = rng.standard_normal(n_modes)
    return CircleField(0.0, xs, ys)


# Row-block budget of the stepper, in float64 elements (1 MB): a block of the
# modes and its noise stay in cache while they are updated.
_BLOCK_ELEMENTS = 1 << 17


def ou_step(rng: np.random.Generator, b: np.ndarray, modes: np.ndarray,
            decay: np.ndarray, std: np.ndarray, sqrt_dt: float, noise: np.ndarray) -> None:
    """One exact step of a batch, in place: b (R,) Brownian, ``modes`` the (2R, N)
    rows of x then y.

    ``decay, std`` come from :func:`ou_step_coeffs`.  ``noise`` is a
    caller-owned C-contiguous (rows, N) scratch buffer the normals are drawn
    into, with 1 <= rows; the modes are stepped in blocks of that many rows,
    one fill and three in-place updates each, and nothing is allocated.  The
    draw order is fixed: the Brownian increments, then the x rows, then the y
    rows.  A C-order fill split into consecutive pieces draws the same normals
    as one fill, so the paths do not depend on the block size, and every
    caller that steps from the same generator state reproduces them bit for
    bit, equal to ``x * decay + std * z``.
    """
    flat = noise.reshape(-1)
    for s in range(0, b.size, flat.size):
        nb = flat[:b.size - s]
        rng.standard_normal(out=nb)
        nb *= sqrt_dt
        np.add(b[s:s + nb.size], nb, out=b[s:s + nb.size])
    rows = noise.shape[0]
    for s in range(0, len(modes), rows):
        # one view per block: ``modes[s:s + rows] += z`` would copy back through __setitem__
        blk = modes[s:s + rows]
        z = noise[:len(blk)]
        rng.standard_normal(out=z)
        z *= std
        blk *= decay
        blk += z


def stream_paths(rng: np.random.Generator, n_paths: int, n_modes: int, grid: TimeGrid,
                 initial: CircleField | None = None):
    """The one path stepper: a batch of paths, one time slice at a time.

    Draws the start (stationary x0 then y0, or the fixed slice ``initial``),
    then B, x and y at every step, and yields ``(k, b, x, y)`` with b (R,) and
    x, y (R, N) for k = 0..K; with ``initial`` its mode count replaces
    ``n_modes``.  x and y are the two halves of one (2, R, N) array, stepped
    together by :func:`ou_step` in row blocks of at most 2^17 elements (2048
    rows at N = 64), in the order of an unblocked step.  The modes and the
    noise block are one allocation, reused from slice to slice, so memory
    does not grow with K and the noise stays within 1 MB whatever R; a
    consumer that keeps a slice copies it.
    """
    n_modes = n_modes if initial is None else initial.n_modes
    rows = max(1, min(2 * n_paths, _BLOCK_ELEMENTS // n_modes))
    buf = np.empty((2 * n_paths + rows, n_modes))
    modes, noise = buf[:2 * n_paths], buf[2 * n_paths:]
    xy = modes.reshape(2, n_paths, n_modes)
    if initial is None:
        rng.standard_normal(out=modes)
    else:
        xy[0], xy[1] = initial.xs, initial.ys
    decay, std = ou_step_coeffs(np.arange(1, n_modes + 1), grid.dt)
    sqrt_dt = np.sqrt(grid.dt)
    b = np.zeros(n_paths)
    x, y = xy
    yield 0, b, x, y
    for k in range(1, grid.n_steps + 1):
        ou_step(rng, b, modes, decay, std, sqrt_dt, noise)
        yield k, b, x, y


def sample_path_batch(rng: np.random.Generator, n_paths: int, n_modes: int,
                      grid: TimeGrid, initial: CircleField | None = None):
    """Stored batch of paths from a stationary draw (default) or a fixed slice.

    The collection of :func:`stream_paths`; returns (B, X, Y) with shapes
    (R, K+1), (R, K+1, N), (R, K+1, N).
    """
    n_modes = n_modes if initial is None else initial.n_modes
    brownian = np.empty((n_paths, grid.n_steps + 1))
    xs = np.empty((n_paths, grid.n_steps + 1, n_modes))
    ys = np.empty_like(xs)
    for k, b, x, y in stream_paths(rng, n_paths, n_modes, grid, initial):
        brownian[:, k], xs[:, k], ys[:, k] = b, x, y
    return brownian, xs, ys


def evolve_path(initial: CircleField, c: float, grid: TimeGrid, seed=None) -> PathSample:
    """Evolve one path from a fixed initial slice with an exact update scheme."""
    b, x, y = sample_path_batch(generator(seed), 1, initial.n_modes, grid, initial)
    start = CircleField(float(c), initial.xs.copy(), initial.ys.copy())
    return PathSample(grid=grid, brownian=b[0], mode_x=x[0], mode_y=y[0], initial=start)


def theta_basis(n_modes: int, thetas: np.ndarray):
    """Basis matrices (N, T): cos(n theta)/sqrt(n) and sin(n theta)/sqrt(n).

    Every field read goes through here: the read-only pair is built once per
    mode count and angles and shared (:func:`_basis`).
    """
    return _basis(n_modes, np.asarray(thetas, dtype=float).reshape(-1).tobytes())


@functools.lru_cache(maxsize=64)
def _basis(n_modes: int, thetas: bytes):
    thetas = np.frombuffer(thetas)
    n = np.arange(1, n_modes + 1, dtype=float)[:, None]
    root = np.sqrt(n)
    pair = np.cos(n * thetas[None, :]) / root, np.sin(n * thetas[None, :]) / root
    for m in pair:
        m.flags.writeable = False
    return pair


def fluctuation_grid(mode_x: np.ndarray, mode_y: np.ndarray, thetas: np.ndarray,
                     n_modes_used: int | None = None) -> np.ndarray:
    """Mode field on a theta grid: sum_n [x_n cos + y_n sin]/sqrt(n).

    ``mode_x`` and ``mode_y`` have shape (..., N); the result is (..., T).
    """
    n_avail = mode_x.shape[-1]
    n_used = n_avail if n_modes_used is None else n_modes_used
    if n_used > n_avail:
        raise IndexOutOfRange(f"requested {n_used} modes, path has {n_avail}")
    cb, sb = theta_basis(n_used, thetas)
    lead = mode_x.shape[:-1]
    x2 = mode_x[..., :n_used].reshape(-1, n_used)
    y2 = mode_y[..., :n_used].reshape(-1, n_used)
    out = x2 @ cb + y2 @ sb
    return out.reshape(*lead, -1)


# ---------------------------------------------------------------------------
# Closed-form covariance oracles (unit radius)
# ---------------------------------------------------------------------------

def covariance_oracle(kind: str, t: float, theta: float, t2: float, theta2: float) -> float:
    """Closed-form covariances used to validate the sampler.

    kind="slice":      stationary slice-field kernel
                       log( max(e^{-t2}, e^{-t}) / |e^{-t2+i theta2} - e^{-t+i theta}| )
    kind="dirichletY": zero-boundary part
                       log( |1-e^{-(t+t2)} e^{i d}| / |e^{-t2+i theta2} - e^{-t+i theta}| ) - min(t,t2)
    kind="harmonic":   -log|1 - e^{-(t+t2)} e^{i d}|  with d = theta - theta2

    Raises CoincidentPoints where the requested kernel is log-divergent.
    """
    if t < 0.0 or t2 < 0.0:
        raise NegativeTime("slice times must be >= 0")
    z = np.exp(-t + 1j * theta)
    z2 = np.exp(-t2 + 1j * theta2)
    sep = abs(z - z2)
    ring = abs(1.0 - np.exp(-(t + t2) + 1j * (theta - theta2)))
    if kind == "slice":
        if sep == 0.0:
            raise CoincidentPoints("slice kernel diverges at coincident points")
        return float(-min(t, t2) - np.log(sep))
    if kind == "dirichletY":
        if sep == 0.0:
            raise CoincidentPoints("dirichletY kernel diverges at coincident points")
        return float(np.log(ring) - np.log(sep) - min(t, t2))
    if kind == "harmonic":
        if ring == 0.0:
            raise CoincidentPoints("harmonic kernel diverges at t=t2=0, equal angles")
        return float(-np.log(ring))
    raise ValueError(f"unknown covariance kind {kind!r}")


def truncated_slice_cov(n_modes: int, dt_abs, dtheta):
    """Mode-truncated slice covariance sum_{n<=N} e^{-n|t-t2|} cos(n d)/n.

    Broadcasts over array arguments; this is the exact covariance of the
    sampled N-mode field and the kernel used by shift-based estimators.
    """
    dt_abs = np.abs(np.asarray(dt_abs, dtype=float))
    dtheta = np.asarray(dtheta, dtype=float)
    total = np.zeros(np.broadcast(dt_abs, dtheta).shape)
    for n in range(1, n_modes + 1):  # one mode at a time: no (..., N) temporaries
        total += np.exp(-n * dt_abs) * np.cos(n * dtheta) / n
    return total[()]


# ---------------------------------------------------------------------------
# Circle average
# ---------------------------------------------------------------------------

CIRCLE_QUADRATURE_POINTS = 16  # angles of the circle average of a chaos density

class CircleAverage:
    """The one circle average: the mode field averaged over a radius-epsilon circle in (t, theta).

    Averaging over the circle is a time shift plus a rotation of each mode
    pair (x_n, y_n) by n * epsilon * sin(v) at every quadrature angle v, so
    the average at row k needs only rows k - reach .. k + reach, a window of
    at most 2 epsilon/dt + 1 slices.
    """

    def __init__(self, epsilon: float, dt: float):
        ratio = epsilon / dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise EpsilonGridMismatch(f"epsilon={epsilon} is not a positive multiple of dt={dt}")
        qp = CIRCLE_QUADRATURE_POINTS
        v = 2.0 * np.pi * (np.arange(qp) + 0.5) / qp
        self.offsets = np.rint(epsilon * np.cos(v) / dt).astype(int)
        self.angles = epsilon * np.sin(v)
        self.reach = int(np.abs(self.offsets).max())

    def covers(self, k: int, n_steps: int) -> bool:
        """Whether the circle around row k stays inside rows 0..n_steps."""
        return self.reach <= k <= n_steps - self.reach

    def modes(self, slice_at, k: int):
        """Averaged mode coefficients (x, y) at row k; ``slice_at(row)`` gives (x, y) there."""
        acc_x = acc_y = 0.0
        for off, ang in zip(self.offsets, self.angles):
            x, y = slice_at(k + off)
            n = np.arange(1, x.shape[-1] + 1, dtype=float)
            cos_r, sin_r = np.cos(n * ang), np.sin(n * ang)
            acc_x = acc_x + (x * cos_r + y * sin_r)
            acc_y = acc_y + (-x * sin_r + y * cos_r)
        return acc_x / self.offsets.size, acc_y / self.offsets.size


# ---------------------------------------------------------------------------
# Debug dump
# ---------------------------------------------------------------------------

def dump_path(path: PathSample, fileobj: io.IOBase) -> None:
    """Write a path to an open binary file.

    Layout: one JSON header line {dt, n_steps, n_modes, c}, then float64
    row-major blocks in order: brownian (K+1), mode_x (K+1, N), mode_y
    (K+1, N), initial xs (N), initial ys (N).
    """
    head = {"dt": path.grid.dt, "n_steps": path.grid.n_steps,
            "n_modes": path.n_modes, "c": path.initial.zero_mode}
    fileobj.write((json.dumps(head, sort_keys=True) + "\n").encode())
    for arr in (path.brownian, path.mode_x, path.mode_y, path.initial.xs, path.initial.ys):
        fileobj.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_path(fileobj: io.IOBase) -> PathSample:
    """Inverse of :func:`dump_path`."""
    head = json.loads(fileobj.readline().decode())
    grid = TimeGrid(head["dt"], head["n_steps"])
    kp1, n = head["n_steps"] + 1, head["n_modes"]

    def block(count):
        return np.frombuffer(fileobj.read(8 * count), dtype="<f8").copy()

    brownian = block(kp1)
    mode_x = block(kp1 * n).reshape(kp1, n)
    mode_y = block(kp1 * n).reshape(kp1, n)
    xs = block(n)
    ys = block(n)
    return PathSample(grid, brownian, mode_x, mode_y, CircleField(head["c"], xs, ys))
