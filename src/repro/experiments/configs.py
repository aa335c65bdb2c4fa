"""The five topology/routing/placement combinations (paper §4.4.3).

1. Fat-Tree with ftree routing and linear placement  (the baseline),
2. Fat-Tree with SSSP routing and clustered placement,
3. HyperX with DFSSSP routing and linear placement,
4. HyperX with DFSSSP routing and random placement,
5. HyperX with PARX routing and clustered placement.

:func:`build_fabric` constructs (and caches) the routed plane for a
combination; PARX fabrics are rebuilt per workload when a communication
profile is supplied — exactly the paper's "re-route the fabric prior to
the job start" flow.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.core.rng import derive_seed
from repro.ib.fabric import Fabric
from repro.ib.subnet_manager import OpenSM
from repro.mpi.job import Job
from repro.mpi.pml import BfoPml, Ob1Pml, ParxBfoPml, Pml
from repro.placement import placement
from repro.routing import create_engine, engine_names, engine_spec
from repro.topology.network import Network
from repro.topology.t2hx import t2hx_fattree, t2hx_hyperx


@dataclass(frozen=True)
class Combination:
    """One evaluated system configuration."""

    key: str
    label: str
    topology: str  # "fattree" | "hyperx"
    routing: str   # any registered engine name (repro.routing.registry)
    placement: str  # "linear" | "clustered" | "random"

    @property
    def uses_parx(self) -> bool:
        """Whether this cell runs the demand-driven PARX flow.

        Registry-backed: true for every engine that declares
        ``needs_demands`` (parx, parx-nd), which is what the re-route-
        per-job fabric flow and the modified-bfo PML actually key on.
        """
        return engine_spec(self.routing).needs_demands


THE_FIVE: tuple[Combination, ...] = (
    Combination("ft-ftree-linear", "Fat-Tree / ftree / linear",
                "fattree", "ftree", "linear"),
    Combination("ft-sssp-clustered", "Fat-Tree / SSSP / clustered",
                "fattree", "sssp", "clustered"),
    Combination("hx-dfsssp-linear", "HyperX / DFSSSP / linear",
                "hyperx", "dfsssp", "linear"),
    Combination("hx-dfsssp-random", "HyperX / DFSSSP / random",
                "hyperx", "dfsssp", "random"),
    Combination("hx-parx-clustered", "HyperX / PARX / clustered",
                "hyperx", "parx", "clustered"),
)

#: The reference all relative gains are computed against (paper §5.1).
BASELINE = THE_FIVE[0]

_TOPOLOGY_PREFIX = {"ft": "fattree", "hx": "hyperx"}
_PLACEMENTS = ("linear", "clustered", "random")


def get_combination(key: str) -> Combination:
    """Look up a combination by its short key.

    The paper's five combinations match by exact key.  Beyond those,
    any ``{ft|hx}-{engine}-{placement}`` key naming a registered routing
    engine is a valid campaign cell — e.g. ``hx-fthx-linear`` or
    ``hx-parx-nd-clustered`` (engine names may themselves contain
    hyphens; the placement is always the last token).  The key string
    doubles as the ledger-compatible cell id.
    """
    for c in THE_FIVE:
        if c.key == key:
            return c

    parts = key.split("-")
    prefix = parts[0] if parts else ""
    topology = _TOPOLOGY_PREFIX.get(prefix)
    placement_name = parts[-1] if len(parts) >= 3 else ""
    if topology is None or placement_name not in _PLACEMENTS:
        raise ConfigurationError(
            f"unknown combination {key!r}; expected one of "
            f"{[c.key for c in THE_FIVE]} or a "
            f"'{{ft|hx}}-{{engine}}-{{placement}}' key with engine in "
            f"{engine_names()} and placement in {list(_PLACEMENTS)}"
        )
    routing = "-".join(parts[1:-1])
    spec = engine_spec(routing)  # unknown engine -> ConfigurationError
    if spec.topologies and topology not in spec.topologies:
        raise ConfigurationError(
            f"engine {routing!r} does not support topology {topology!r} "
            f"(supported: {sorted(spec.topologies)})"
        )
    label = f"{'Fat-Tree' if topology == 'fattree' else 'HyperX'} / " \
            f"{routing} / {placement_name}"
    return Combination(key, label, topology, routing, placement_name)


# --- plane / fabric construction ---------------------------------------------
_fabric_cache: dict[str, Fabric] = {}

#: Fabrics certified by the preflight lint gate this process, by content
#: cache key.  Content keys survive garbage collection (unlike the old
#: ``id(fabric)`` keying, where a recycled id could skip the gate) and
#: are what the campaign ledger persists per cell.
_preflighted_keys: set[str] = set()

#: Directory of the persistent on-disk fabric cache, or ``None`` when
#: disabled.  Campaign workers enable it so only the first worker to
#: touch a configuration pays the OpenSM + routing-engine cost.
_fabric_cache_dir: Path | None = None

#: Build/lookup counters since the last reset, surfaced per cell in the
#: campaign ledger ("warm cache" is verified by ``routed == 0``;
#: ``mmap_attaches`` distinguishes zero-copy attaches to the shared
#: cache file from cold JSON deserialisation).
_fabric_cache_stats = {
    "memory_hits": 0,    # served from this process's in-memory cache
    "disk_hits": 0,      # deserialized from the on-disk cache
    "disk_stores": 0,    # routed here and written to the on-disk cache
    "routed": 0,         # OpenSM + routing engine actually ran
    "mmap_attaches": 0,  # disk hits that memory-mapped the dense rows
    "load_errors": 0,    # disk entries that failed to load and were rebuilt
}

#: Whether disk-cache loads memory-map the dense forwarding matrix
#: (copy-on-write) instead of deserialising it.  On by default; campaign
#: workers set it explicitly via their initializer.
_fabric_cache_mmap = True


def fabric_cache_key(
    combo: Combination,
    scale: float = 1,
    with_faults: bool = True,
    seed: int = 0,
    demands: Mapping[int, Mapping[int, int]] | None = None,
) -> str:
    """Content key of a routed plane: combination/scale/faults/seed.

    Demand-routed PARX planes append a digest of the demand file, so two
    fabrics share a key exactly when they were built from identical
    inputs — the property both the preflight gate and the on-disk cache
    rely on.
    """
    key = f"{combo.key}/s{scale}/f{int(with_faults)}/seed{seed}"
    if demands is not None:
        blob = json.dumps(
            {
                str(src): {str(dst): int(v) for dst, v in row.items()}
                for src, row in demands.items()
            },
            sort_keys=True,
        )
        key += f"/d{hashlib.sha256(blob.encode()).hexdigest()[:16]}"
    return key


def get_fabric_cache_dir() -> Path | None:
    """Current on-disk fabric cache directory (``None`` when disabled)."""
    return _fabric_cache_dir


def set_fabric_cache_dir(path: str | Path | None) -> None:
    """Enable (or, with ``None``, disable) the on-disk fabric cache."""
    global _fabric_cache_dir
    if path is None:
        _fabric_cache_dir = None
        return
    _fabric_cache_dir = Path(path)
    _fabric_cache_dir.mkdir(parents=True, exist_ok=True)


def set_fabric_cache_mmap(enabled: bool) -> None:
    """Toggle memory-mapped disk-cache loads (see ``_fabric_cache_mmap``)."""
    global _fabric_cache_mmap
    _fabric_cache_mmap = bool(enabled)


def get_fabric_cache_mmap() -> bool:
    """Whether disk-cache loads currently memory-map the dense rows."""
    return _fabric_cache_mmap


def fabric_cache_stats() -> dict[str, int]:
    """Snapshot of the build/lookup counters (copies, safe to keep)."""
    return dict(_fabric_cache_stats)


def reset_fabric_cache_stats() -> None:
    """Zero the counters (campaign workers do this per cell)."""
    for k in _fabric_cache_stats:
        _fabric_cache_stats[k] = 0


def _disk_cache_path(cache_key: str) -> Path | None:
    if _fabric_cache_dir is None:
        return None
    digest = hashlib.sha256(cache_key.encode()).hexdigest()[:32]
    return _fabric_cache_dir / f"fabric-{digest}.json"


def build_fabric(
    combo: Combination,
    scale: float = 1,
    with_faults: bool = True,
    seed: int = 0,
    demands: Mapping[int, Mapping[int, int]] | None = None,
) -> Fabric:
    """Build (or fetch from cache) the routed plane of a combination.

    Returns the :class:`~repro.ib.fabric.Fabric`; the underlying
    topology is reachable as ``fabric.net``.  Fabrics without
    workload-specific state are cached in-process per content key
    (combination/scale/faults/seed) and, when
    :func:`set_fabric_cache_dir` enabled it, persisted to disk so other
    processes skip OpenSM + routing entirely.  A PARX fabric routed
    against a communication profile (``demands``) is never cached —
    each profile produces different tables.
    """
    cache_key = fabric_cache_key(
        combo, scale=scale, with_faults=with_faults, seed=seed,
        demands=demands,
    )
    cacheable = demands is None
    if cacheable and cache_key in _fabric_cache:
        _fabric_cache_stats["memory_hits"] += 1
        return _fabric_cache[cache_key]

    if combo.topology == "fattree":
        net = t2hx_fattree(with_faults=with_faults, seed=seed, scale=scale)
    elif combo.topology == "hyperx":
        net = t2hx_hyperx(with_faults=with_faults, seed=seed, scale=scale)
    else:
        raise ConfigurationError(f"unknown topology {combo.topology!r}")

    disk_path = _disk_cache_path(cache_key) if cacheable else None
    if disk_path is not None and disk_path.exists():
        try:
            fabric = Fabric.load(
                net,
                disk_path,
                mmap_mode="c" if _fabric_cache_mmap else None,
            )
        except Exception:
            # Stale version / truncated file / foreign plane: rebuild,
            # and count it — a rebuild is never a silent cache hit.
            _fabric_cache_stats["load_errors"] += 1
            disk_path.unlink(missing_ok=True)
            Fabric.rows_sidecar(disk_path).unlink(missing_ok=True)
        else:
            _fabric_cache_stats["disk_hits"] += 1
            if fabric.tables.is_mmap_backed:
                _fabric_cache_stats["mmap_attaches"] += 1
            _fabric_cache[cache_key] = fabric
            return fabric

    engine, sm_kwargs = make_engine(combo, demands)
    fabric = OpenSM(net, **sm_kwargs).run(engine)
    fabric.cache_key = cache_key
    _fabric_cache_stats["routed"] += 1

    if cacheable:
        _fabric_cache[cache_key] = fabric
        if disk_path is not None:
            fabric.save(disk_path, arrays=True)
            _fabric_cache_stats["disk_stores"] += 1
    return fabric


def make_engine(
    combo: Combination,
    demands: Mapping[int, Mapping[int, int]] | None = None,
):
    """The routing engine a combination uses, plus its OpenSM settings.

    Returns ``(engine, sm_kwargs)``; the same pairing
    :func:`build_fabric` routes with, exposed so re-sweeps after fabric
    events (:func:`repro.ib.subnet_manager.resweep`) recompute tables
    with the engine that produced them.  Construction goes through the
    engine registry (:func:`repro.routing.create_engine`), so any
    registered engine name is a valid :attr:`Combination.routing`; the
    returned ``sm_kwargs`` are the engine's declared
    :attr:`~repro.routing.base.RoutingEngine.sm_defaults`.
    """
    engine = create_engine(combo.routing, demands=demands)
    return engine, dict(engine.sm_defaults)


def clear_fabric_cache() -> None:
    """Drop cached fabrics and their preflight certifications (tests
    that mutate networks need this)."""
    _fabric_cache.clear()
    _preflighted_keys.clear()


def was_preflighted(cache_key: str | None) -> bool:
    """Whether the preflight lint already certified this content key."""
    return cache_key is not None and cache_key in _preflighted_keys


def mark_preflighted(cache_key: str | None) -> None:
    """Record a preflight certification for a content key."""
    if cache_key is not None:
        _preflighted_keys.add(cache_key)


def make_pml(combo: Combination) -> Pml:
    """The messaging layer a combination runs with.

    PARX requires the modified bfo (Table 1 selection); every other
    combination uses Open MPI's default ob1.  Plain (non-PARX) bfo is
    available via :class:`~repro.mpi.pml.BfoPml` for ablations.
    """
    if combo.uses_parx:
        return ParxBfoPml()
    return Ob1Pml()


def make_bfo_pml() -> Pml:
    """Plain round-robin bfo, for the ob1-vs-bfo overhead ablation."""
    return BfoPml()


def make_job(
    combo: Combination,
    fabric: Fabric,
    num_nodes: int,
    seed: int = 0,
    pool: list[int] | None = None,
) -> Job:
    """Place a job according to the combination's allocation policy."""
    nodes = placement(
        combo.placement,
        pool if pool is not None else fabric.net.terminals,
        num_nodes,
        seed=derive_seed(seed, "placement", combo.key),
    )
    return Job(fabric, nodes, pml=make_pml(combo))
