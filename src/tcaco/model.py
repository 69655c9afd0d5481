"""Routable packets and their terminal fates."""

from __future__ import annotations


# Terminal packet fates; a packet leaves IN_FLIGHT exactly once.
IN_FLIGHT = "in_flight"
DELIVERED = "delivered"
DROPPED_OVERFLOW = "dropped_overflow"
DROPPED_TIMEOUT = "dropped_timeout"
DROPPED_MALICIOUS = "dropped_malicious"

TERMINAL_FATES = (DELIVERED, DROPPED_OVERFLOW, DROPPED_TIMEOUT, DROPPED_MALICIOUS)


class Packet:
    """A routable data unit: hop trail, queue and hold stamps, and fate.

    ``hop_trail`` starts at the packet's origin and gains each node that
    takes the packet in. ``queued_at`` is the cycle the packet entered its current queue and
    ``held_until`` the cycle a delay hold ends. ``fake`` marks traffic that
    must never earn delivery credit (flood injections and duplicate clones);
    it still loads queues and radios.
    """

    __slots__ = ("id", "hop_trail", "queued_at", "held_until",
                 "created_cycle", "fate", "fake", "transfer_failures")

    def __init__(self, pid: int, origin: int, created_cycle: int, fake: bool = False):
        self.id = pid
        self.hop_trail: list[int] = [origin]
        self.queued_at = created_cycle
        self.held_until = created_cycle
        self.created_cycle = created_cycle
        self.fate = IN_FLIGHT
        self.fake = fake
        self.transfer_failures = 0

    def resolve(self, fate: str) -> None:
        """Move to a terminal fate; transitions are monotone (exactly one)."""
        if self.fate != IN_FLIGHT:
            raise RuntimeError(f"packet {self.id} already resolved to {self.fate}")
        if fate not in TERMINAL_FATES:
            raise ValueError(f"not a terminal fate: {fate}")
        self.fate = fate

    def __repr__(self) -> str:
        return (f"Packet(id={self.id}, origin={self.hop_trail[0]}, "
                f"holder={self.hop_trail[-1]}, fate={self.fate})")

