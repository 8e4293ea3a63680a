"""Fault injection plans for the simulated device fleet.

A :class:`FaultPlan` is a deterministic schedule of failure/elasticity
events applied at lockstep-iteration boundaries by
:class:`~repro.localsearch.multistart.MultiStartRunner`:

- ``fail:<device>@<iteration>`` — the device dies; its resident replicas
  remigrate to the survivors (recovered from the exact host mirror) and the
  search continues bit-identically.
- ``join:<device>@<iteration>`` — an attached-but-inactive device comes
  online; a weighted repartition absorbs it.
- ``flaky:<retries>@<iteration>`` — the next host transfer priced by the
  pool's :class:`~repro.gpu.interconnect.TransferEngine` suffers
  ``retries`` transient failures, each retried with exponential backoff.
  Purely a timing event: trajectories are unaffected.

Events fire *before* the iteration with that index executes, so two runs —
one with a plan and one applying the same fleet changes by hand — see the
same device set for every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan"]

#: Recognised event kinds (see the module docstring for semantics).
FAULT_KINDS = ("fail", "join", "flaky")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` with integer argument ``arg`` at ``at``.

    ``arg`` is the device index for ``fail``/``join`` and the retry count
    for ``flaky``.
    """

    kind: str
    arg: int
    at: int

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError(f"fault iteration must be >= 0, got {self.at}")
        if self.arg < 0:
            raise ValueError(f"fault argument must be >= 0, got {self.arg}")

    def __str__(self) -> str:
        return f"{self.kind}:{self.arg}@{self.at}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of :class:`FaultEvent` entries."""

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.at, FAULT_KINDS.index(e.kind))))
        object.__setattr__(self, "events", ordered)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI syntax: comma-separated ``kind:arg@iteration`` terms.

        Example: ``"flaky:2@5,fail:1@40,join:2@80"``.  An empty string is an
        empty plan.
        """
        events = []
        for term in text.split(","):
            term = term.strip()
            if not term:
                continue
            try:
                head, at_text = term.rsplit("@", 1)
                kind, arg_text = head.split(":", 1)
                events.append(FaultEvent(kind.strip(), int(arg_text), int(at_text)))
            except ValueError as exc:
                if "unknown fault kind" in str(exc) or "must be >=" in str(exc):
                    raise
                raise ValueError(
                    f"bad fault term {term!r}; expected kind:arg@iteration with kind "
                    f"one of {FAULT_KINDS}"
                ) from None
        return cls(tuple(events))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __str__(self) -> str:
        return ",".join(str(event) for event in self.events)

    def due(self, iteration: int) -> tuple[FaultEvent, ...]:
        """Events scheduled exactly at ``iteration`` (in application order)."""
        return tuple(event for event in self.events if event.at == iteration)

    def device_events(self) -> tuple[FaultEvent, ...]:
        """The ``fail``/``join`` subset (what the fleet mask must honor)."""
        return tuple(event for event in self.events if event.kind in ("fail", "join"))
