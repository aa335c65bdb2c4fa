"""The single source of truth for routing-engine construction.

Before this registry existed, engine construction was forked between
``cli.py`` (a private name -> class dict) and the experiment layer's
``make_engine`` if-chain — which covered only four of the engines, so
campaigns and resilience sweeps could not race most of the catalogue.
Now every consumer (``repro route --engine``, ``Combination.routing``,
re-sweeps after fabric events) resolves engines identically:

>>> engine = create_engine("dfsssp")
>>> engine, kwargs = create_engine("parx", demands), sm_kwargs_for("parx")

Registration declares, per engine, how to build it (``factory``), which
subnet-manager settings it needs (``sm_kwargs`` — normally the engine
class's own declared ``sm_defaults``), whether it ingests a
communication profile (``needs_demands``), and which topology families
it is defined for (``topologies`` — empty means any).  The catalogue
helpers expose the same metadata for documentation tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.errors import ConfigurationError
from repro.routing.base import RoutingEngine, declares_tree_job


@dataclass(frozen=True)
class EngineSpec:
    """One registered routing engine.

    Attributes
    ----------
    name:
        Public engine name (CLI value, ``Combination.routing`` value).
    factory:
        Zero-argument constructor — or, with ``needs_demands``, a
        one-argument constructor taking the communication profile.
    sm_kwargs:
        Subnet-manager settings the engine runs under; kept for callers
        that construct :class:`~repro.ib.subnet_manager.OpenSM`
        explicitly (``OpenSM.run`` would resolve the same values from
        the engine's ``sm_defaults`` anyway).
    needs_demands:
        Whether :func:`create_engine` forwards the ``demands`` profile
        to the factory (PARX-family engines).
    description:
        One-line summary for the documentation catalogue.
    topologies:
        Topology families the engine is defined for (``"hyperx"``,
        ``"fattree"``); empty means topology-agnostic.  Consumed by the
        registry contract tests and the docs table.
    """

    name: str
    factory: Callable[..., RoutingEngine]
    sm_kwargs: Mapping[str, Any] = field(default_factory=dict)
    needs_demands: bool = False
    description: str = ""
    topologies: tuple[str, ...] = ()


_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(
    name: str,
    factory: Callable[..., RoutingEngine],
    *,
    sm_kwargs: Mapping[str, Any] | None = None,
    needs_demands: bool = False,
    description: str = "",
    topologies: tuple[str, ...] = (),
) -> EngineSpec:
    """Register a routing engine under a public name.

    ``sm_kwargs`` defaults to the engine class's declared
    ``sm_defaults`` (when ``factory`` is the class itself), so the
    registry never re-states a tuple the engine already declares.
    Re-registering a name is a :class:`ConfigurationError` — two
    engines silently shadowing each other is exactly the forked-
    construction bug this registry exists to prevent.
    """
    if name in _REGISTRY:
        raise ConfigurationError(f"engine {name!r} is already registered")
    if sm_kwargs is None:
        sm_kwargs = dict(getattr(factory, "sm_defaults", None) or {})
    spec = EngineSpec(
        name=name,
        factory=factory,
        sm_kwargs=dict(sm_kwargs),
        needs_demands=needs_demands,
        description=description,
        topologies=tuple(topologies),
    )
    _REGISTRY[name] = spec
    return spec


def engine_names() -> list[str]:
    """All registered engine names, sorted."""
    return sorted(_REGISTRY)


def engine_spec(name: str) -> EngineSpec:
    """The registration record of one engine.

    Unknown names raise with the full sorted catalogue, so a typo in a
    CLI flag or a campaign key names its alternatives.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: {engine_names()}"
        ) from None


def create_engine(
    name: str,
    demands: Mapping[int, Mapping[int, int]] | None = None,
) -> RoutingEngine:
    """Instantiate a registered engine.

    ``demands`` (a communication profile) is forwarded to engines that
    declared ``needs_demands`` and ignored by the rest — callers can
    pass whatever profile they have without knowing the engine family.
    """
    spec = engine_spec(name)
    if spec.needs_demands:
        return spec.factory(demands)
    return spec.factory()


def sm_kwargs_for(name: str) -> dict[str, Any]:
    """The subnet-manager settings a registered engine runs under."""
    return dict(engine_spec(name).sm_kwargs)


def engine_catalogue() -> list[dict[str, Any]]:
    """Metadata rows for every registered engine (docs / JSON)."""
    rows = []
    for name in engine_names():
        spec = _REGISTRY[name]
        probe = create_engine(name)
        rows.append({
            "name": name,
            "deadlock_free": bool(
                probe.provides_deadlock_freedom or probe.self_layering
            ),
            "incremental_resweep": bool(probe.supports_incremental_resweep),
            "parallel_sweep": declares_tree_job(probe),
            "needs_demands": bool(spec.needs_demands),
            "sm_kwargs": dict(spec.sm_kwargs),
            "topologies": list(spec.topologies) or ["any"],
            "description": spec.description,
        })
    return rows


def catalogue_markdown() -> str:
    """The engine catalogue as a Markdown table (README / DESIGN)."""
    lines = [
        "| engine | deadlock-free | incremental re-sweep "
        "| parallel sweep | demands-aware | topologies | description |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in engine_catalogue():
        lines.append(
            "| `{name}` | {dl} | {inc} | {par} | {dem} "
            "| {topo} | {desc} |".format(
                name=row["name"],
                dl="yes" if row["deadlock_free"] else "no",
                inc="yes" if row["incremental_resweep"] else "no",
                par="yes" if row["parallel_sweep"] else "no",
                dem="yes" if row["needs_demands"] else "no",
                topo=", ".join(row["topologies"]),
                desc=row["description"],
            )
        )
    return "\n".join(lines)
