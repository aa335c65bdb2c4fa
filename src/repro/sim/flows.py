"""Traffic containers: messages, synchronised phases, programs.

The MPI layer lowers every operation into a :class:`Program` — an
ordered list of :class:`Phase` objects.  All messages of a phase start
together and the phase ends when the last one lands (the classic
bulk-synchronous approximation of collective rounds); successive phases
are dependency-ordered.  The simulator only ever sees these containers,
so workloads, collectives and benchmarks all speak one language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.sim.batch import MessageBatch


@dataclass(slots=True)
class Message:
    """One point-to-point transfer, already resolved onto the fabric.

    Attributes
    ----------
    src, dst:
        Terminal node ids (not MPI ranks — the job object did the
        rank-to-node mapping before building messages).
    size:
        Payload bytes.
    path:
        Link-id sequence the message travels (empty for self-sends).
    overhead:
        Per-message software latency (PML-dependent; this is where the
        bfo penalty of section 5.1 lives).
    lid_index:
        Destination LID index the path was resolved through (0 is the
        base LID); a fault re-route heals the message onto the same
        LID's new route.
    """

    src: int
    dst: int
    size: float
    path: tuple[int, ...]
    overhead: float = 0.0
    lid_index: int = 0


class Phase:
    """A synchronised round of messages, held as one
    :class:`~repro.sim.batch.MessageBatch`.

    Builders that already hold arrays (the job layer) pass ``batch``;
    hand-assembled phases pass ``messages``, which are flattened once
    here.  :attr:`messages` is a read-only view: the objects a phase was
    built from, or, for batch-built phases, objects made from the batch
    on first access.
    """

    __slots__ = ("batch", "label", "_messages")

    def __init__(
        self,
        messages: Iterable[Message] = (),
        label: str = "",
        *,
        batch: MessageBatch | None = None,
    ) -> None:
        msgs = tuple(messages) if batch is None else None
        self._messages = msgs
        self.batch = batch or MessageBatch.from_messages(msgs or ())
        self.label = label

    @property
    def messages(self) -> tuple[Message, ...]:
        if self._messages is None:
            self._messages = self.batch.messages()
        return self._messages

    def __len__(self) -> int:
        return self.batch.n

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)


@dataclass(slots=True)
class Program:
    """An ordered sequence of phases plus optional compute gaps.

    ``compute_between_phases`` seconds of pure computation separate
    consecutive phases (the EmDL benchmark's 0.1 s usleep, proxy-app
    compute sections); it is added once per gap by the simulator.
    """

    phases: list[Phase] = field(default_factory=list)
    label: str = ""
    compute_between_phases: float = 0.0

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def extend(self, other: "Program") -> None:
        """Append another program's phases (sequential composition)."""
        self.phases.extend(other.phases)


def program_bytes(program: Program) -> float:
    """Total payload bytes a program injects (tests: byte conservation)."""
    return sum(z for phase in program for z in phase.batch.sizes.tolist())


def merge_concurrent(programs: Iterable[Program], label: str = "") -> Program:
    """Zip programs phase-by-phase into one concurrently executing program.

    Phase ``i`` of the result holds every program's phase ``i`` messages;
    shorter programs simply stop contributing.  Used to model multiple
    applications sharing the fabric (the capacity evaluation).
    """
    progs = list(programs)
    out = Program(label=label)
    depth = max((len(p) for p in progs), default=0)
    for i in range(depth):
        batch = MessageBatch.concat(
            [p.phases[i].batch for p in progs if i < len(p)]
        )
        out.phases.append(Phase(label=f"{label}[{i}]", batch=batch))
    return out
