"""Generic rank-level traffic patterns.

Building blocks for the proxy applications: n-dimensional halo
exchanges (stencil codes), data transposes (FFTs), shift permutations
(mpiGraph, pairwise phases), bisection pairings (Netgauge eBB) and
random pairs.  Everything returns the same ``list[RankPhase]`` shape
the collectives use, so :class:`~repro.mpi.job.Job` materialises them
identically.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng
from repro.mpi.collectives import RankPhase


def rank_grid(p: int, dims: int) -> tuple[int, ...]:
    """Factor ``p`` ranks into a near-cubic ``dims``-dimensional grid.

    Mirrors ``MPI_Dims_create``: repeatedly peel the largest factor onto
    the currently smallest dimension, yielding e.g. ``rank_grid(12, 3)
    == (3, 2, 2)``.
    """
    if p < 1 or dims < 1:
        raise ConfigurationError(f"invalid grid request p={p}, dims={dims}")
    shape = [1] * dims
    remaining = p
    factors: list[int] = []
    d = 2
    while remaining > 1:
        while remaining % d == 0:
            factors.append(d)
            remaining //= d
        d += 1
    for f in sorted(factors, reverse=True):
        shape[int(np.argmin(shape))] *= f
    return tuple(sorted(shape, reverse=True))


def nd_halo_exchange(
    p: int,
    face_bytes: float,
    dims: int = 3,
    corners: bool = False,
    corner_bytes: float = 0.0,
    periodic: bool = True,
) -> list[RankPhase]:
    """One halo-exchange step on a ``dims``-D rank grid.

    Each rank swaps ``face_bytes`` with its 2*dims face neighbours; with
    ``corners`` every other neighbour in the 3^dims - 1 stencil (edges
    and corners — the 27-point stencil of AMG's problem 1) additionally
    exchanges ``corner_bytes``.  One phase per direction so the sends of
    a direction are a clean permutation, as real stencil codes post them.
    """
    if face_bytes < 0 or corner_bytes < 0:
        raise ConfigurationError("negative halo sizes")
    shape = rank_grid(p, dims)
    coords = list(itertools.product(*(range(s) for s in shape)))
    rank_of = {c: i for i, c in enumerate(coords)}

    def neighbor(c: tuple[int, ...], delta: tuple[int, ...]) -> int | None:
        out = []
        for x, d, s in zip(c, delta, shape):
            nx = x + d
            if periodic:
                nx %= s
            elif not 0 <= nx < s:
                return None
            out.append(nx)
        n = rank_of[tuple(out)]
        return None if n == rank_of[c] else n

    phases: list[RankPhase] = []
    deltas = [d for d in itertools.product((-1, 0, 1), repeat=dims) if any(d)]
    for delta in deltas:
        order = sum(abs(x) for x in delta)
        if order == 1:
            size = face_bytes
        elif corners:
            size = corner_bytes
        else:
            continue
        if size <= 0:
            continue
        phase: RankPhase = []
        for c in coords:
            n = neighbor(c, delta)
            if n is not None:
                phase.append((rank_of[c], n, size))
        if phase:
            phases.append(phase)
    return phases


def transpose_alltoall(
    group: list[int], total_bytes_per_rank: float
) -> RankPhase:
    """One data transpose within a sub-communicator (FFT pencil swap).

    Every rank of ``group`` scatters its local volume evenly over the
    group — an all-to-all where each pair moves ``total/|group|`` bytes.
    """
    g = len(group)
    if g < 2:
        return []
    chunk = total_bytes_per_rank / g
    return [
        (a, b, chunk)
        for a in group
        for b in group
        if a != b
    ]


def shift_pattern(p: int, size: float, shift: int) -> RankPhase:
    """The shift permutation: rank ``i`` sends to ``(i + shift) mod p``.

    mpiGraph's measurement pattern and the building block of pairwise
    exchanges; shift permutations are the Fat-Tree's best case under
    d-mod-k (Zahavi) and the HyperX's worst case under minimal routing.
    """
    if shift % p == 0:
        raise ConfigurationError(f"shift {shift} is a self-send for p={p}")
    return [(i, (i + shift) % p, size) for i in range(p)]


def bisection_pairs(
    p: int, size: float, seed: int | None | np.random.Generator = 0
) -> RankPhase:
    """A random bisecting matching: Netgauge eBB's sample pattern.

    Ranks are split into two random halves and matched one-to-one; each
    pair exchanges ``size`` bytes in both directions simultaneously.
    """
    if p < 2:
        raise ConfigurationError("bisection needs at least two ranks")
    rng = make_rng(seed)
    perm = rng.permutation(p)
    half = p // 2
    phase: RankPhase = []
    for a, b in zip(perm[:half], perm[half : 2 * half]):
        phase.append((int(a), int(b), size))
        phase.append((int(b), int(a), size))
    return phase


def incast(p: int, size: float, root: int = 0) -> RankPhase:
    """Everyone sends to one root at once (the admissibility counter-
    example of section 2.1 — no topology saves an incast)."""
    return [(i, root, size) for i in range(p) if i != root]


def uniform_random_pairs(
    p: int,
    size: float,
    num_messages: int,
    seed: int | None | np.random.Generator = 0,
) -> RankPhase:
    """Uniform-random traffic — the load HyperX is provisioned for."""
    rng = make_rng(seed)
    phase: RankPhase = []
    while len(phase) < num_messages:
        a, b = rng.integers(0, p, 2)
        if a != b:
            phase.append((int(a), int(b), size))
    return phase
