"""Capacitated network graph: switches, terminals and directed links.

The :class:`Network` is the single graph representation shared by every
routing engine and the flow simulator.  Design choices:

* **Single integer id space** for switches and terminals; ``kind(u)``
  distinguishes them.  Routing tables, flows and LID maps all key on
  these small integers, which keeps the hot loops allocation-free.
* **Directed links.**  A physical cable is two directed links that
  reference each other via :attr:`Link.reverse_id`; fault injection
  disables both at once (a broken AOC kills both directions).
* **Disabling, not deleting.**  Link ids stay stable across fault
  injection so cached routings can be diffed; every traversal helper
  skips disabled links.
* **Terminals are single-homed** within one network plane, mirroring the
  paper's one-HCA-port-per-plane wiring (both planes attach to CPU0).
"""

from __future__ import annotations

from typing import Any, Collection, Iterable, Iterator

import numpy as np

from repro.core.errors import TopologyError
from repro.core.units import QDR_LINK_BANDWIDTH

SWITCH = "switch"
TERMINAL = "terminal"

#: Masked-subview cache entries kept per :class:`SwitchGraph` (PARX uses
#: four masks, N-D PARX ``2N``; the cap only guards against pathological
#: callers streaming unique masks).
_MASK_CACHE_LIMIT = 32


class SwitchGraph:
    """CSR view of the enabled switch-to-switch subgraph of a network.

    The routing sweep runs one Dijkstra per destination LID; on the full
    12x8 plane that used to mean millions of :class:`Link` attribute
    reads and per-node list allocations through :meth:`Network.in_links`.
    This view flattens the *in*-link adjacency (the direction destination
    trees relax) into three parallel arrays — source switch (dense
    index), link id (which doubles as the weight index), and a CSR
    ``indptr`` — built once per :attr:`Network.version` and shared by
    every engine via :meth:`Network.switch_graph`.

    Switches are addressed by *dense index* (position in
    :attr:`Network.switches` order); :attr:`index` maps node ids to dense
    indices (-1 for terminals).
    """

    __slots__ = (
        "version", "num_switches", "switches", "index",
        "in_ptr", "in_src", "in_link",
        "link_dst_index", "link_dst_node", "link_src_node", "link_enabled",
        "host_index", "hosts_mask", "attached_counts", "host_switches",
        "_masked_cache",
    )

    def __init__(self, net: "Network") -> None:
        self.version = net.version
        switches = net._switches
        self.num_switches = len(switches)
        self.switches = list(switches)
        index = np.full(len(net._kind), -1, dtype=np.int64)
        index[switches] = np.arange(self.num_switches, dtype=np.int64)
        self.index = index

        per_dst: list[list[tuple[int, int]]] = [[] for _ in switches]
        n_links = len(net.links)
        link_dst_index = np.full(n_links, -1, dtype=np.int64)
        link_dst_node = np.empty(n_links, dtype=np.int64)
        link_src_node = np.empty(n_links, dtype=np.int64)
        link_enabled = np.zeros(n_links, dtype=bool)
        for link in net.links:
            link_dst_node[link.id] = link.dst
            link_src_node[link.id] = link.src
            link_enabled[link.id] = link.enabled
            di = index[link.dst]
            if di >= 0:
                link_dst_index[link.id] = di
                si = index[link.src]
                if link.enabled and si >= 0:
                    per_dst[di].append((int(si), link.id))
        self.link_dst_index = link_dst_index
        self.link_dst_node = link_dst_node
        self.link_src_node = link_src_node
        self.link_enabled = link_enabled

        in_ptr = [0]
        in_src: list[int] = []
        in_link: list[int] = []
        for rows in per_dst:
            for si, lid in rows:
                in_src.append(si)
                in_link.append(lid)
            in_ptr.append(len(in_src))
        self.in_ptr = np.asarray(in_ptr, dtype=np.int64)
        self.in_src = np.asarray(in_src, dtype=np.int64)
        self.in_link = np.asarray(in_link, dtype=np.int64)

        # Terminal attachment, dense: host_index[node] is the dense index
        # of the switch an enabled terminal hangs off (-1 for switches
        # and detached terminals); hosts_mask marks switches that host at
        # least one enabled terminal (the reachability set every engine's
        # coverage check consults).
        host_index = np.full(len(net._kind), -1, dtype=np.int64)
        attached_counts = np.zeros(self.num_switches, dtype=np.float64)
        for t in net._terminals:
            for lid in net._out[t]:
                link = net.links[lid]
                if link.enabled and index[link.dst] >= 0:
                    host_index[t] = index[link.dst]
                    attached_counts[index[link.dst]] += 1.0
                    break
        self.host_index = host_index
        self.attached_counts = attached_counts
        self.hosts_mask = attached_counts > 0
        self.host_switches = np.flatnonzero(self.hosts_mask)
        self._masked_cache: dict[frozenset[int], "MaskedSwitchGraph"] = {}

    def masked(self, masked_links: Collection[int]) -> "SwitchGraph | MaskedSwitchGraph":
        """This view with ``masked_links`` filtered out of the CSR.

        Memoised per frozenset so PARX's per-rule masks are filtered once
        per fabric version, not once per destination.
        """
        if not masked_links:
            return self
        key = (
            masked_links
            if isinstance(masked_links, frozenset)
            else frozenset(masked_links)
        )
        view = self._masked_cache.get(key)
        if view is None:
            if len(self._masked_cache) >= _MASK_CACHE_LIMIT:
                self._masked_cache.clear()
            view = MaskedSwitchGraph(self, key)
            self._masked_cache[key] = view
        return view


class MaskedSwitchGraph:
    """A :class:`SwitchGraph` with some link ids virtually removed.

    Shares the parent's dense switch indexing; only the in-link CSR is
    re-filtered.  PARX's rules R1-R4 route against these subviews.
    """

    __slots__ = (
        "version", "num_switches", "switches", "index",
        "in_ptr", "in_src", "in_link",
        "hosts_mask", "host_switches",
    )

    def __init__(self, graph: SwitchGraph, masked: frozenset[int]) -> None:
        self.version = graph.version
        self.num_switches = graph.num_switches
        self.switches = graph.switches
        self.index = graph.index
        self.hosts_mask = graph.hosts_mask
        self.host_switches = graph.host_switches
        n = graph.num_switches
        keep = ~np.isin(graph.in_link, np.fromiter(masked, np.int64, len(masked)))
        owner = np.repeat(np.arange(n), np.diff(graph.in_ptr))
        self.in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[keep], minlength=n), out=self.in_ptr[1:])
        self.in_src = graph.in_src[keep]
        self.in_link = graph.in_link[keep]


class Link:
    """One directed link of the fabric.

    Attributes
    ----------
    id:
        Dense index into :attr:`Network.links`.
    src, dst:
        Endpoint node ids.
    capacity:
        Bytes per second in the ``src -> dst`` direction.
    reverse_id:
        Id of the opposite direction of the same cable, or ``-1`` for a
        simplex link (not used by any generator, but supported).
    enabled:
        ``False`` once fault injection removed the cable.
    meta:
        Free-form annotations, e.g. ``{"dim": 0}`` on HyperX links or
        ``{"tier": "up"}`` on tree links; routing engines use these.

    ``capacity`` and ``enabled`` are properties whose setters bump the
    owning :attr:`Network.version` — a direct field write
    (``link.capacity = x``) is therefore just as visible to versioned
    views (:class:`~repro.topology.state.FabricState`, the switch-graph
    cache, path memos) as going through ``Network.set_capacity``.
    Before this, direct writes bypassed the counter and consumers had
    to force-refresh defensively every phase.
    """

    __slots__ = (
        "id", "src", "dst", "reverse_id", "meta",
        "_capacity", "_enabled", "_net",
    )

    def __init__(
        self,
        id: int,
        src: int,
        dst: int,
        capacity: float,
        reverse_id: int = -1,
        enabled: bool = True,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.id = id
        self.src = src
        self.dst = dst
        self.reverse_id = reverse_id
        self.meta = {} if meta is None else meta
        self._capacity = capacity
        self._enabled = enabled
        #: Owning network, set by :meth:`Network.add_link`; ``None`` only
        #: for free-standing links (tests), where there is no version to
        #: bump.
        self._net: "Network | None" = None

    @property
    def capacity(self) -> float:
        return self._capacity

    @capacity.setter
    def capacity(self, value: float) -> None:
        self._capacity = value
        if self._net is not None:
            self._net.version += 1

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        if self._net is not None:
            self._net.version += 1

    def __repr__(self) -> str:
        return (
            f"Link(id={self.id}, src={self.src}, dst={self.dst}, "
            f"capacity={self._capacity}, reverse_id={self.reverse_id}, "
            f"enabled={self._enabled})"
        )


class Network:
    """Mutable multigraph of switches, terminals and directed links."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self.links: list[Link] = []
        #: Monotonic fabric-state counter: bumped by every structural or
        #: capacity mutation that goes through the Network API, so live
        #: views (:class:`~repro.topology.state.FabricState`) can cache
        #: derived arrays and invalidate them cheaply.
        self.version = 0
        self._kind: list[str] = []
        self._meta: list[dict[str, Any]] = []
        self._out: list[list[int]] = []
        self._in: list[list[int]] = []
        self._switches: list[int] = []
        self._terminals: list[int] = []
        self._graph_cache: SwitchGraph | None = None

    # --- construction -----------------------------------------------------
    def _add_node(self, kind: str, meta: dict[str, Any]) -> int:
        node = len(self._kind)
        self._kind.append(kind)
        self._meta.append(meta)
        self._out.append([])
        self._in.append([])
        (self._switches if kind == SWITCH else self._terminals).append(node)
        return node

    def add_switch(self, **meta: Any) -> int:
        """Create a switch and return its node id."""
        return self._add_node(SWITCH, meta)

    def add_terminal(self, **meta: Any) -> int:
        """Create a terminal (compute node / HCA port) and return its id."""
        return self._add_node(TERMINAL, meta)

    def add_link(
        self,
        u: int,
        v: int,
        capacity: float = QDR_LINK_BANDWIDTH,
        **meta: Any,
    ) -> tuple[int, int]:
        """Add a full-duplex cable between ``u`` and ``v``.

        Returns the ids of the two directed links ``(u->v, v->u)``.  Both
        carry a shallow copy of ``meta``.
        """
        if u == v:
            raise TopologyError(f"self-loop on node {u}")
        self._check_node(u)
        self._check_node(v)
        if self._kind[u] == TERMINAL and self._kind[v] == TERMINAL:
            raise TopologyError(f"terminal-terminal cable {u}-{v} is not allowed")
        for t in (u, v):
            if self._kind[t] == TERMINAL and self._out[t]:
                raise TopologyError(
                    f"terminal {t} is already attached; terminals are single-homed"
                )
        fwd = Link(len(self.links), u, v, capacity, meta=dict(meta))
        self.links.append(fwd)
        rev = Link(len(self.links), v, u, capacity, meta=dict(meta))
        self.links.append(rev)
        fwd.reverse_id = rev.id
        rev.reverse_id = fwd.id
        fwd._net = rev._net = self
        self._out[u].append(fwd.id)
        self._in[v].append(fwd.id)
        self._out[v].append(rev.id)
        self._in[u].append(rev.id)
        self.version += 1
        return fwd.id, rev.id

    def _check_node(self, u: int) -> None:
        if not 0 <= u < len(self._kind):
            raise TopologyError(f"unknown node id {u}")

    # --- node queries -------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._kind)

    @property
    def num_switches(self) -> int:
        return len(self._switches)

    @property
    def num_terminals(self) -> int:
        return len(self._terminals)

    @property
    def switches(self) -> list[int]:
        """Switch node ids in creation order."""
        return list(self._switches)

    @property
    def terminals(self) -> list[int]:
        """Terminal node ids in creation order."""
        return list(self._terminals)

    def kind(self, u: int) -> str:
        self._check_node(u)
        return self._kind[u]

    def is_switch(self, u: int) -> bool:
        return self.kind(u) == SWITCH

    def is_terminal(self, u: int) -> bool:
        return self.kind(u) == TERMINAL

    def node_meta(self, u: int) -> dict[str, Any]:
        self._check_node(u)
        return self._meta[u]

    # --- link queries -------------------------------------------------------
    def link(self, link_id: int) -> Link:
        return self.links[link_id]

    def out_links(self, u: int) -> list[Link]:
        """Enabled links leaving ``u``."""
        return [self.links[i] for i in self._out[u] if self.links[i].enabled]

    def in_links(self, u: int) -> list[Link]:
        """Enabled links arriving at ``u``."""
        return [self.links[i] for i in self._in[u] if self.links[i].enabled]

    def all_out_links(self, u: int) -> list[Link]:
        """All links leaving ``u``, including disabled ones."""
        return [self.links[i] for i in self._out[u]]

    def links_between(self, u: int, v: int) -> list[Link]:
        """Enabled directed links ``u -> v`` (may be several: trunking)."""
        return [
            self.links[i]
            for i in self._out[u]
            if self.links[i].enabled and self.links[i].dst == v
        ]

    def neighbors(self, u: int) -> list[int]:
        """Distinct neighbours of ``u`` over enabled links."""
        seen: dict[int, None] = {}
        for link in self.out_links(u):
            seen.setdefault(link.dst)
        return list(seen)

    def iter_links(self, enabled_only: bool = True) -> Iterator[Link]:
        for link in self.links:
            if link.enabled or not enabled_only:
                yield link

    def degree(self, u: int) -> int:
        """Number of enabled links leaving ``u`` (the used port count)."""
        return len(self.out_links(u))

    # --- terminal attachment -------------------------------------------------
    def attached_switch(self, terminal: int) -> int:
        """The switch a terminal hangs off.  Raises if detached."""
        if not self.is_terminal(terminal):
            raise TopologyError(f"node {terminal} is not a terminal")
        for link in self.out_links(terminal):
            if self.is_switch(link.dst):
                return link.dst
        raise TopologyError(f"terminal {terminal} has no enabled switch link")

    def attached_terminals(self, switch: int) -> list[int]:
        """Terminals hanging off a switch, in port order."""
        if not self.is_switch(switch):
            raise TopologyError(f"node {switch} is not a switch")
        return [
            link.dst for link in self.out_links(switch) if self.is_terminal(link.dst)
        ]

    def terminal_uplink(self, terminal: int) -> Link:
        """The (single) enabled terminal -> switch link."""
        for link in self.out_links(terminal):
            if self.is_switch(link.dst):
                return link
        raise TopologyError(f"terminal {terminal} has no enabled switch link")

    # --- fault handling -------------------------------------------------------
    def disable_cable(self, link_id: int) -> None:
        """Disable both directions of the cable containing ``link_id``."""
        link = self.links[link_id]
        # Raw writes + one explicit bump: the property setters would bump
        # once per direction.
        link._enabled = False
        if link.reverse_id >= 0:
            self.links[link.reverse_id]._enabled = False
        self.version += 1

    def enable_cable(self, link_id: int) -> None:
        """Re-enable both directions of the cable containing ``link_id``."""
        link = self.links[link_id]
        link._enabled = True
        if link.reverse_id >= 0:
            self.links[link.reverse_id]._enabled = True
        self.version += 1

    def set_capacity(
        self, link_id: int, capacity: float, both_directions: bool = True
    ) -> None:
        """Change a link's capacity through the versioned API.

        A capacity of 0 models a cable that is present but carries
        nothing (the ">10,000 symbol errors" end state before the cable
        is pulled); the simulator refuses flows over such links instead
        of letting them finish instantly.  Negative capacities are
        rejected.
        """
        if capacity < 0:
            raise TopologyError(
                f"link {link_id} capacity must be >= 0, got {capacity}"
            )
        link = self.links[link_id]
        link._capacity = float(capacity)
        if both_directions and link.reverse_id >= 0:
            self.links[link.reverse_id]._capacity = float(capacity)
        self.version += 1

    def switch_graph(self) -> SwitchGraph:
        """The CSR switch-graph view, cached per :attr:`version`.

        Any mutation through the Network API bumps :attr:`version` and
        implicitly invalidates the cached view; callers must not hold a
        view across mutations.
        """
        g = self._graph_cache
        if g is None or g.version != self.version:
            g = SwitchGraph(self)
            self._graph_cache = g
        return g

    def switch_cables(self) -> list[Link]:
        """One representative direction per enabled switch-to-switch cable."""
        return [
            link
            for link in self.links
            if link.enabled
            and link.id < link.reverse_id
            and self.is_switch(link.src)
            and self.is_switch(link.dst)
        ]

    # --- path helpers -----------------------------------------------------------
    def path_nodes(self, path: Iterable[int]) -> list[int]:
        """Expand a link-id path into the node sequence it visits."""
        nodes: list[int] = []
        for link_id in path:
            link = self.links[link_id]
            if not nodes:
                nodes.append(link.src)
            elif nodes[-1] != link.src:
                raise TopologyError(
                    f"discontinuous path: link {link_id} starts at {link.src}, "
                    f"previous hop ended at {nodes[-1]}"
                )
            nodes.append(link.dst)
        return nodes

    def path_hops(self, path: Iterable[int]) -> int:
        """Number of switch-to-switch hops on a link-id path."""
        hops = 0
        for link_id in path:
            link = self.links[link_id]
            if self.is_switch(link.src) and self.is_switch(link.dst):
                hops += 1
        return hops

    # --- validation / export -----------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`."""
        for t in self._terminals:
            links = self.out_links(t)
            if len(links) != 1:
                raise TopologyError(
                    f"terminal {t} has {len(links)} enabled links, expected 1"
                )
        for link in self.links:
            rev = self.links[link.reverse_id] if link.reverse_id >= 0 else None
            if rev is not None and (rev.src, rev.dst) != (link.dst, link.src):
                raise TopologyError(f"link {link.id} reverse pointer is inconsistent")
            if link.capacity <= 0:
                raise TopologyError(f"link {link.id} has non-positive capacity")

    def to_networkx(self, switches_only: bool = False):
        """Export the enabled subgraph as a :class:`networkx.MultiDiGraph`."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for u in range(self.num_nodes):
            if switches_only and not self.is_switch(u):
                continue
            g.add_node(u, kind=self._kind[u], **self._meta[u])
        for link in self.iter_links():
            if switches_only and not (
                self.is_switch(link.src) and self.is_switch(link.dst)
            ):
                continue
            g.add_edge(link.src, link.dst, key=link.id, capacity=link.capacity)
        return g

    def __repr__(self) -> str:
        enabled = sum(1 for _ in self.iter_links())
        return (
            f"Network({self.name!r}, switches={self.num_switches}, "
            f"terminals={self.num_terminals}, directed_links={enabled})"
        )
