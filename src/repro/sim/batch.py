"""Flat-array message batches: a phase as parallel numpy arrays.

A :class:`MessageBatch` is the one representation of a phase's
messages, from the MPI job layer through to the fairness solve:

* ``sizes``/``overheads`` — float payload bytes and per-message software
  latency,
* ``src``/``dst`` — terminal node ids,
* ``lid_index`` — the destination LID index the PML picked (the route a
  re-sweep must heal the message onto),
* ``lens``/``ptr``/``flat`` — the CSR flattening of the link-id paths
  (message ``i`` crosses ``flat[ptr[i]:ptr[i+1]]``).

:meth:`MessageBatch.from_messages` flattens hand-built
:class:`~repro.sim.flows.Message` lists through :func:`flatten_paths`,
the same kernel the fairness solver and the byte-per-link accounting
use; builders that already hold arrays (``Job.materialize``) construct
the batch directly.  :meth:`MessageBatch.messages` is the reverse: the
per-message objects, for the few callers that want them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.flows import Message

__all__ = ["MessageBatch", "flatten_paths"]


def flatten_paths(
    paths: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten link-id paths into ``(lens, ptr, flat)`` CSR arrays.

    ``lens[i] == len(paths[i])``, ``ptr`` is the exclusive prefix sum
    (``ptr[0] == 0``), and ``flat[ptr[i]:ptr[i+1]]`` holds path ``i``'s
    link ids in order.  The single shared flattening kernel behind
    :meth:`MessageBatch.from_messages`, the fairness solver's
    non-prebuilt constructor path, and the utilisation accounting.
    """
    n = len(paths)
    lens = np.fromiter((len(p) for p in paths), dtype=np.intp, count=n)
    ptr = csr_offsets(lens)
    flat = np.fromiter(
        (lid for p in paths for lid in p), dtype=np.intp, count=int(ptr[-1])
    )
    return lens, ptr, flat


def csr_offsets(lens: np.ndarray) -> np.ndarray:
    """The ``ptr`` array of a CSR layout: ``[0, cumsum(lens)...]``."""
    return np.concatenate(([0], lens.cumsum())).astype(np.intp)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in a non-empty sorted
    array (one run costs a single compare)."""
    if keys[0] == keys[-1]:
        return np.zeros(1, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def spread(values: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """``values[i]`` repeated over run ``i`` of ``run_starts``' runs (a
    scalar when there is one run; it broadcasts the same)."""
    if starts.size == 1:
        return values[0]
    return values.repeat(np.concatenate((starts[1:], [size])) - starts)


class MessageBatch:
    """A phase's messages as parallel flat arrays (see module docs)."""

    __slots__ = (
        "n", "sizes", "overheads", "src", "dst", "lid_index", "lens", "ptr",
        "flat",
    )

    def __init__(
        self,
        sizes: np.ndarray,
        overheads: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        lid_index: np.ndarray,
        lens: np.ndarray,
        flat: np.ndarray,
    ) -> None:
        self.n = int(len(sizes))
        self.sizes = sizes
        self.overheads = overheads
        self.src = src
        self.dst = dst
        self.lid_index = lid_index
        self.lens = lens
        self.ptr = csr_offsets(lens)
        self.flat = flat

    @classmethod
    def from_messages(cls, messages: Sequence["Message"]) -> "MessageBatch":
        """Build a batch from message objects (hand-assembled phases)."""
        n = len(messages)
        lens, _, flat = flatten_paths([m.path for m in messages])

        def column(attr: str, dtype: type) -> np.ndarray:
            return np.fromiter(
                (getattr(m, attr) for m in messages), dtype=dtype, count=n
            )

        return cls(
            column("size", float),
            column("overhead", float),
            column("src", np.int64),
            column("dst", np.int64),
            column("lid_index", np.int64),
            lens,
            flat,
        )

    @classmethod
    def concat(cls, batches: Sequence["MessageBatch"]) -> "MessageBatch":
        """One batch holding every input batch's messages, in order."""
        if len(batches) == 1:
            return batches[0]
        return cls(*(
            np.concatenate([getattr(b, attr) for b in batches])
            for attr in (
                "sizes", "overheads", "src", "dst", "lid_index", "lens", "flat"
            )
        ))

    def path(self, i: int) -> tuple[int, ...]:
        """Message ``i``'s link ids."""
        return tuple(self.flat[self.ptr[i]:self.ptr[i + 1]].tolist())

    def with_paths(
        self, rows: Sequence[int], paths: Sequence[Sequence[int]]
    ) -> "MessageBatch":
        """A copy whose messages ``rows`` travel ``paths`` instead."""
        segments = np.split(self.flat, self.ptr[1:-1])
        for r, p in zip(rows, paths):
            segments[r] = np.asarray(p, dtype=self.flat.dtype)
        lens = self.lens.copy()
        lens[rows] = [len(p) for p in paths]
        return MessageBatch(
            self.sizes, self.overheads, self.src, self.dst, self.lid_index,
            lens, np.concatenate(segments),
        )

    def messages(self) -> tuple["Message", ...]:
        """The batch as message objects, one per row."""
        from repro.sim.flows import Message

        flat = self.flat.tolist()
        ptr = self.ptr.tolist()
        return tuple(
            Message(s, d, z, tuple(flat[ptr[i]:ptr[i + 1]]), o, lid)
            for i, (s, d, z, o, lid) in enumerate(zip(
                self.src.tolist(), self.dst.tolist(), self.sizes.tolist(),
                self.overheads.tolist(), self.lid_index.tolist(),
            ))
        )

    def bytes_per_link(self, n_links: int) -> np.ndarray:
        """Payload bytes crossing each link id, as a dense array.

        The batched form of the utilisation accounting's old triple
        Python loop: one ``np.repeat`` + ``np.bincount`` pass.
        """
        if self.flat.size == 0:
            return np.zeros(n_links)
        return np.bincount(
            self.flat,
            weights=np.repeat(self.sizes, self.lens),
            minlength=n_links,
        )
