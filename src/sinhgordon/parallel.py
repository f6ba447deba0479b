"""Deterministic replica-parallel execution.

:func:`map_replicas` is the one place the replica contract lives: replicas
are split into fixed-size chunks, chunk i draws from the i-th stateless child
of the master seed, and the chunk results are joined in chunk order, so the
output is identical for any worker count.  Every replica sampler goes through it:
the plain estimators, the region masses, the SMC runs (one run per chunk)
and the ``validate`` panel.  Workers are threads: the heavy kernels (matmul,
exp) release the GIL.  The pool is plain ``threading``, with the calling
thread as one of the workers, so no executor module is loaded and no idle
thread waits.

While a pool runs, numpy's bundled OpenBLAS is held at one thread, so N
workers keep N cores busy instead of N times the BLAS thread count
(``runner.run`` holds it for a whole experiment, whatever the worker count).
OpenBLAS splits a matmul's output across its threads, never a dot product, so
the pinning leaves every result bit-identical.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError

ENV_WORKERS = "SINHGORDON_WORKERS"

# Replicas per chunk of every sampler but the SMC runs (one run per chunk).
# Chunk i draws from the i-th child seed, so the size is part of every record.
CHUNK = 256


def resolve_workers(explicit: int | None = None) -> int:
    """``explicit``, else ``SINHGORDON_WORKERS`` where it is set and not empty, else 1;
    a count that is not an integer of at least 1 is a :class:`ConfigError`."""
    if explicit is not None:
        if explicit < 1:
            raise ConfigError(f"workers must be at least 1, got {explicit}")
        return explicit
    env = os.environ.get(ENV_WORKERS)
    if not env:
        return 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConfigError(f"{ENV_WORKERS} must be an integer of at least 1, got {env!r}")
    return int(env)


def as_seed_sequence(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def generator(seed) -> np.random.Generator:
    """The one bit generator of every draw: SFC64 seeded from ``seed``'s sequence."""
    return np.random.Generator(np.random.SFC64(as_seed_sequence(seed)))


def stateless_children(seed, n: int):
    """n child seed sequences derived without mutating the parent.

    Unlike ``SeedSequence.spawn`` this is a pure function, so two estimators
    handed the same seed see the same substreams (common random numbers).
    """
    ss = as_seed_sequence(seed)
    key = tuple(ss.spawn_key)
    return [np.random.SeedSequence(entropy=ss.entropy, spawn_key=key + (i,))
            for i in range(n)]


def seed_chunks(seed, total: int, chunk_size: int):
    """[(child_seed_sequence, size), ...] covering ``total`` replicas."""
    if total < 1:
        raise ValueError("total must be >= 1")
    sizes = [chunk_size] * (total // chunk_size)
    if total % chunk_size:
        sizes.append(total % chunk_size)
    return list(zip(stateless_children(seed, len(sizes)), sizes))


class _OpenBlas:
    """Process-wide thread count of numpy's bundled OpenBLAS.

    The library is looked up on first use, not at import.  ``pin`` holds the
    count at 1 and the matching ``unpin`` restores it once the last
    overlapping holder leaves, so concurrent or nested pools cannot restore
    each other's value.  Without the library both do nothing.
    """

    _NAMES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")

    def __init__(self):
        self._lock = threading.Lock()
        self._funcs = None          # (get, set), () if absent, None before lookup
        self._holders = 0
        self._saved = None

    def _lookup(self):
        if self._funcs is None:
            try:
                lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
                get, set_ = (getattr(lib, name) for name in self._NAMES)
            except (AttributeError, OSError):
                self._funcs = ()
            else:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                self._funcs = (get, set_)
        return self._funcs

    def threads(self) -> int | None:
        """Current thread count, or None without a bundled OpenBLAS."""
        with self._lock:
            funcs = self._lookup()
            return funcs[0]() if funcs else None

    def pin(self) -> None:
        with self._lock:
            funcs = self._lookup()
            if funcs and self._holders == 0:
                self._saved = funcs[0]()
                funcs[1](1)
            self._holders += 1

    def unpin(self) -> None:
        with self._lock:
            self._holders -= 1
            if self._funcs and self._holders == 0:
                self._funcs[1](self._saved)


_BLAS = _OpenBlas()


def blas_threads(workers: int) -> int | None:
    """OpenBLAS thread count ``map_chunks`` runs at with ``workers`` resolved workers."""
    threads = _BLAS.threads()
    return 1 if threads is not None and workers > 1 else threads


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, then restore the count."""
    _BLAS.pin()
    try:
        yield
    finally:
        _BLAS.unpin()


def map_chunks(fn, chunks, workers: int = 1):
    """Apply ``fn`` to every chunk, preserving chunk order in the result.

    With more than one worker and chunk, the calling thread runs chunks
    alongside ``workers - 1`` helper threads; each takes the next chunk index
    under a lock, so chunks start in order.  Once a chunk has raised, no new
    chunk starts; the running ones finish, and the error of the lowest failed
    index is raised, as the serial path would raise it.  OpenBLAS is held at
    one thread meanwhile.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    results = [None] * len(chunks)
    errors = {}
    lock = threading.Lock()
    order = iter(range(len(chunks)))

    def work():
        while True:
            with lock:
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(chunks[i])
            except BaseException as exc:  # noqa: BLE001 - raised in the calling thread
                with lock:
                    errors[i] = exc

    with one_blas_thread():
        helpers = [threading.Thread(target=work)
                   for _ in range(min(workers, len(chunks)) - 1)]
        for t in helpers:
            t.start()
        try:
            work()
        finally:
            for t in helpers:
                t.join()
    if errors:
        raise errors[min(errors)]
    return results


def map_replicas(run, seed, n: int, chunk_size: int, workers: int = 1) -> dict:
    """Run ``run(rng, size)`` over ``n`` replicas in chunks; join its columns in chunk order.

    Chunk i gets the :func:`generator` of the i-th child of ``seed``
    (:func:`seed_chunks`).  ``run`` returns ``{name: array}``, with one row per
    replica or, where the chunk reduces its replicas itself, one row per chunk;
    each name is concatenated along axis 0.
    """
    parts = map_chunks(lambda chunk: run(generator(chunk[0]), chunk[1]),
                       seed_chunks(seed, n, chunk_size), workers)
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
