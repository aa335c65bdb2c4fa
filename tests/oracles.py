"""Reference implementations the fast paths are tested against.

Each function here is the original, deliberately simple implementation
of a kernel the library has since rewritten for speed.  They are kept
as executable specifications only: the equivalence tests and the perf
benchmarks compare the production code against them, and nothing in
``src/`` calls them.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Set

import numpy as np

from repro.core.errors import DeadlockError, SimulationError
from repro.ib.cdg import addition_creates_cycle
from repro.sim.fairness import _EPS


def reference_max_min_fair_rates(
    flow_links: Sequence[Sequence[int]],
    link_capacity: Mapping[int, float] | Sequence[float] | np.ndarray,
) -> np.ndarray:
    """The pre-incremental max-min solver.

    Rebuilds the scipy CSR incidence from Python lists on every call —
    exactly what :class:`repro.sim.fairness.FairnessProblem` exists to
    avoid.  The equivalence tests assert the incremental engine matches
    this function to 1e-9, and the perf benchmarks measure the speedup
    against it.
    """
    from scipy import sparse

    n_flows = len(flow_links)
    if n_flows == 0:
        return np.zeros(0)

    used_links: dict[int, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    empty_flows: list[int] = []
    for f, links in enumerate(flow_links):
        if not links:
            empty_flows.append(f)
            continue
        for lid in links:
            rows.append(used_links.setdefault(lid, len(used_links)))
            cols.append(f)
    n_links = len(used_links)
    rates = np.zeros(n_flows)
    if empty_flows:
        rates[empty_flows] = np.inf
    if n_links == 0:
        return rates

    if isinstance(link_capacity, Mapping):
        caps = np.array([link_capacity[lid] for lid in used_links], dtype=float)
    else:
        cap_arr = np.asarray(link_capacity, dtype=float)
        caps = np.array([cap_arr[lid] for lid in used_links], dtype=float)
    if np.any(caps <= 0):
        raise SimulationError("links must have positive capacity")

    a = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_links, n_flows)
    )
    at = a.T.tocsr()

    active = np.ones(n_flows, dtype=bool)
    active[empty_flows] = False
    cap_left = caps.copy()
    level = np.zeros(n_flows)

    for _ in range(n_links + 1):
        if not active.any():
            break
        n_active = a @ active.astype(float)
        crossed = n_active > 0
        if not crossed.any():
            break
        inc = np.min(cap_left[crossed] / n_active[crossed])
        level[active] += inc
        cap_left -= inc * n_active
        saturated = crossed & (cap_left <= _EPS * caps)
        if not saturated.any():
            idx = np.argmin(np.where(crossed, cap_left / np.maximum(n_active, 1), np.inf))
            saturated = np.zeros_like(crossed)
            saturated[idx] = True
        frozen = (at @ saturated.astype(float)) > 0
        newly = frozen & active
        if not newly.any():
            raise SimulationError("progressive filling failed to converge")
        rates[newly] = level[newly]
        active &= ~newly
    else:
        raise SimulationError("progressive filling exceeded its iteration bound")

    rates[active] = level[active]  # pathological leftovers (shouldn't occur)
    return rates


def reference_assign_layers(
    dep_edges_by_dest: Mapping[int, Set[tuple[int, int]]],
    max_vls: int = 8,
) -> tuple[dict[int, int], int]:
    """The original first-fit layering (full DFS cycle test per fit).

    The executable specification :func:`repro.ib.deadlock.assign_layers`
    is equivalence-tested against (``tests/test_routing_arrays.py``).
    """
    if max_vls < 1:
        raise DeadlockError(f"need at least one virtual lane, got {max_vls}")

    layers: list[dict[int, set[int]]] = []  # per-lane CDG adjacency
    vl_of_dlid: dict[int, int] = {}

    for dlid in sorted(dep_edges_by_dest):
        deps = dep_edges_by_dest[dlid]
        placed = False
        for vl, adj in enumerate(layers):
            if not addition_creates_cycle(adj, deps):
                _merge(adj, deps)
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
        adj: dict[int, set[int]] = {}
        _merge(adj, deps)
        layers.append(adj)
        vl_of_dlid[dlid] = len(layers) - 1

    return vl_of_dlid, max(1, len(layers))


def _merge(adj: dict[int, set[int]], deps: Set[tuple[int, int]]) -> None:
    for a, b in deps:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())
