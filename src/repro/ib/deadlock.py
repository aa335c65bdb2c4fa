"""Virtual-lane layering for deadlock freedom (DFSSSP/LASH style).

Destination-based forwarding guarantees that all paths toward one
destination LID form a tree rooted at the destination, so the CDG of a
*single* destination is always acyclic.  Cycles only arise between
destinations — and can therefore be broken by partitioning destinations
across virtual lanes (Domke et al., IPDPS '11; Skeie et al.'s LASH uses
the same idea at path granularity).

:func:`assign_layers` implements the greedy first-fit partition:
destinations are processed in LID order and placed into the first lane
whose accumulated CDG stays acyclic; a new lane is opened when none
fits, and :class:`~repro.core.errors.DeadlockError` is raised past the
hardware limit (8 VLs on the paper's QDR gear; DFSSSP needed 3 for the
HyperX, PARX 5-8 depending on the ingested profile).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Set

from repro.core.errors import DeadlockError
from repro.ib.cdg import (
    channel_dependencies,
    find_dependency_cycle,
)
from repro.topology.network import Network


@dataclass(frozen=True)
class CreditLoop:
    """A witnessed credit loop: one CDG cycle inside one virtual lane.

    Attributes
    ----------
    vl:
        The virtual lane whose accumulated CDG is cyclic.
    channels:
        The cycle as an ordered link-id list; every consecutive pair
        (and the wrap from last to first) is a channel dependency, i.e.
        a packet chain holding these channels in order waits on itself.
    """

    vl: int
    channels: tuple[int, ...]

    def __str__(self) -> str:
        ring = " -> ".join(map(str, self.channels + self.channels[:1]))
        return f"credit loop on VL {self.vl}: channels {ring}"


class _Lane:
    """One virtual lane's accumulated CDG, with a dynamic topological order.

    Keeps a valid topological index for every channel node
    (Pearce-Kelly style): inserting an edge that already respects the
    order is O(1), and a violating edge only reorders the affected
    index window instead of re-running a DFS over the whole lane — the
    per-destination cycle test that dominates full-fabric layering.

    :meth:`try_add_dest` is transactional: either the whole destination
    edge set goes in (True) or the lane's edge sets are left exactly as
    before (False).  A failed attempt may still permute the topological
    *order*, which is harmless — any order valid with the extra edges
    remains valid without them, and the accept/reject verdict of later
    insertions never depends on which valid order is current.
    """

    __slots__ = ("out", "inn", "ord", "_next")

    def __init__(self) -> None:
        self.out: dict[int, set[int]] = {}
        self.inn: dict[int, set[int]] = {}
        self.ord: dict[int, int] = {}
        self._next = 0

    def _ensure(self, node: int) -> None:
        if node not in self.ord:
            self.ord[node] = self._next
            self._next += 1
            self.out[node] = set()
            self.inn[node] = set()

    def try_add_dest(self, deps: Set[tuple[int, int]]) -> bool:
        """Add one destination's edges, or nothing at all."""
        added: list[tuple[int, int]] = []
        out, inn, ordm = self.out, self.inn, self.ord
        for a, b in deps:
            if a == b:
                self._revert(added)
                return False
            if a not in ordm:
                ordm[a] = self._next
                self._next += 1
                out[a] = set()
                inn[a] = set()
            if b not in ordm:
                ordm[b] = self._next
                self._next += 1
                out[b] = set()
                inn[b] = set()
            if b in out[a]:
                continue
            if not self._insert(a, b):
                self._revert(added)
                return False
            out[a].add(b)
            inn[b].add(a)
            added.append((a, b))
        return True

    def _revert(self, added: list[tuple[int, int]]) -> None:
        for a, b in added:
            self.out[a].discard(b)
            self.inn[b].discard(a)

    def _insert(self, x: int, y: int) -> bool:
        """Make the order consistent with a new edge ``x -> y``.

        Returns False (leaving the order untouched) when the edge would
        close a cycle.
        """
        ordm = self.ord
        ub = ordm[x]
        lb = ordm[y]
        if ub < lb:
            return True  # already consistent
        # Forward discovery from y, confined to the affected window:
        # reaching x means y ~> x exists, so x -> y closes a cycle.
        out = self.out
        fwd = [y]
        seen = {y}
        stack = [y]
        while stack:
            for v in out[stack.pop()]:
                if v == x:
                    return False
                if v not in seen and ordm[v] < ub:
                    seen.add(v)
                    stack.append(v)
                    fwd.append(v)
        # Backward discovery from x over in-edges, same window.
        inn = self.inn
        bwd = [x]
        seen_b = {x}
        stack = [x]
        while stack:
            for v in inn[stack.pop()]:
                if v not in seen_b and ordm[v] > lb:
                    seen_b.add(v)
                    stack.append(v)
                    bwd.append(v)
        # Reorder: everything reaching x keeps preceding everything
        # reachable from y, reusing the same index pool.
        bwd.sort(key=ordm.__getitem__)
        fwd.sort(key=ordm.__getitem__)
        affected = bwd + fwd
        pool = sorted(ordm[n] for n in affected)
        for node, idx in zip(affected, pool):
            ordm[node] = idx
        return True


def assign_layers(
    dep_edges_by_dest: Mapping[int, Set[tuple[int, int]]],
    max_vls: int = 8,
    order: Sequence[int] | None = None,
) -> tuple[dict[int, int], int]:
    """Partition destination LIDs over virtual lanes.

    Parameters
    ----------
    dep_edges_by_dest:
        ``dlid -> channel-dependency edge set`` (each set is a tree's
        dependencies, hence acyclic on its own).
    max_vls:
        Hardware virtual-lane budget.
    order:
        Explicit destination processing order (must be a permutation of
        the mapping's keys); ``None`` keeps the default sorted-LID
        order.  Greedy first-fit is order-dependent, so layered engines
        that want layer -> VL affinity pass destinations grouped by LID
        index here — and every re-layering of the same fabric must pass
        the same order to reproduce the lanes.

    Returns
    -------
    (vl_of_dlid, num_layers):
        The lane of every destination LID and the number of lanes used.

    Raises
    ------
    DeadlockError
        If some destination fits no lane and the budget is exhausted.

    Lanes maintain a dynamic topological order (:class:`_Lane`), so each
    fit test costs a window reorder instead of a full-lane DFS; the
    accept/reject verdicts — and hence the greedy first-fit result — are
    identical to the original full-DFS first-fit (the oracle
    ``reference_assign_layers`` in ``tests/oracles.py``), which the
    equivalence suite checks.
    """
    if max_vls < 1:
        raise DeadlockError(f"need at least one virtual lane, got {max_vls}")

    if order is not None and sorted(order) != sorted(dep_edges_by_dest):
        raise DeadlockError(
            "layering order must be a permutation of the destination LIDs"
        )
    layers: list[_Lane] = []
    vl_of_dlid: dict[int, int] = {}

    for dlid in (sorted(dep_edges_by_dest) if order is None else order):
        deps = dep_edges_by_dest[dlid]
        placed = False
        for vl, lane in enumerate(layers):
            if lane.try_add_dest(deps):
                vl_of_dlid[dlid] = vl
                placed = True
                break
        if placed:
            continue
        if len(layers) >= max_vls:
            raise DeadlockError(
                f"destination lid {dlid} fits no lane; routing needs more "
                f"than the {max_vls} available virtual lanes"
            )
        lane = _Lane()
        if not lane.try_add_dest(deps):
            raise DeadlockError(
                f"destination lid {dlid} has a cyclic dependency set; "
                "a single destination tree should never self-deadlock"
            )
        layers.append(lane)
        vl_of_dlid[dlid] = len(layers) - 1

    return vl_of_dlid, max(1, len(layers))


def assign_layers_by_destination(
    net: Network,
    dest_paths: Mapping[int, Sequence[list[int]]],
    max_vls: int = 8,
) -> tuple[dict[int, int], int]:
    """Path-based convenience wrapper around :func:`assign_layers`.

    Takes explicit per-destination path lists (as tests do) instead of
    pre-extracted dependency edges.
    """
    dep_edges = {
        dlid: channel_dependencies(net, paths)
        for dlid, paths in dest_paths.items()
    }
    return assign_layers(dep_edges, max_vls=max_vls)


def find_credit_loop(
    net: Network,
    dest_paths: Mapping[int, Sequence[list[int]]],
    vl_of_dlid: Mapping[int, int],
) -> CreditLoop | None:
    """Certify per-lane CDG acyclicity, returning a witness on failure.

    Uses the *exact* dependencies of the given paths, providing a second
    opinion on the incremental (and slightly conservative, see
    :func:`repro.ib.cdg.dest_dependencies_from_tables`) layering.
    Returns ``None`` when every lane's accumulated CDG is acyclic, or
    the first :class:`CreditLoop` found otherwise.
    """
    per_lane: dict[int, set[tuple[int, int]]] = {}
    for dlid, paths in dest_paths.items():
        lane = vl_of_dlid.get(dlid, 0)
        per_lane.setdefault(lane, set()).update(channel_dependencies(net, paths))
    for vl in sorted(per_lane):
        cycle = find_dependency_cycle(per_lane[vl])
        if cycle is not None:
            return CreditLoop(vl=vl, channels=tuple(cycle))
    return None


def verify_deadlock_free(
    net: Network,
    dest_paths: Mapping[int, Sequence[list[int]]],
    vl_of_dlid: Mapping[int, int],
) -> bool:
    """Boolean convenience wrapper around :func:`find_credit_loop`."""
    return find_credit_loop(net, dest_paths, vl_of_dlid) is None
