"""The data-passing channel interface shared by Roadrunner and the baselines.

A channel moves one payload from a source deployed function to a target
deployed function and reports what it cost.  Keeping the interface identical
across Roadrunner's three modes and the two HTTP baselines is what makes the
evaluation an apples-to-apples comparison: the invoker and experiment harness
never special-case any of them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

from repro.metrics.records import LedgerWindow, TransferMetrics
from repro.payload import Payload
from repro.platform.deployment import DeployedFunction
from repro.record import TypedRecord
from repro.sim.ledger import CostLedger


class ChannelError(RuntimeError):
    """Raised when a channel cannot serve a transfer (placement, trust, mode)."""


class _OutcomeFields(NamedTuple):
    delivered: Payload
    metrics: TransferMetrics


class TransferOutcome(TypedRecord, _OutcomeFields):
    """What a channel returns: the delivered payload plus its measurements.

    An immutable tuple record (see :class:`~repro.record.TypedRecord`).
    """

    __slots__ = ()

    def verify_against(self, sent: Payload) -> None:
        """Raise if the delivered payload does not match what was sent."""
        sent.require_match(self.delivered)


class DataPassingChannel(ABC):
    """Moves payloads between deployed functions, charging the cluster ledgers.

    ``ledger`` is the cluster-scoped handle (the merged
    :class:`~repro.sim.ledger.ClusterLedger` view when the channel belongs
    to a cluster); node-local work should charge the owning node's shard via
    :meth:`node_ledger`, so per-node cost attribution survives the transfer.
    """

    #: Short mode label used in reports ("roadrunner-user", "runc-http", ...).
    mode: str = "abstract"

    def __init__(self, ledger: CostLedger) -> None:
        self.ledger = ledger
        self.transfers = 0

    def node_ledger(self, deployed: DeployedFunction) -> CostLedger:
        """The ledger shard of the node hosting ``deployed``.

        Channels that are not cluster-aware (no ``cluster`` attribute) fall
        back to their own ledger, keeping standalone/unit usage working.
        """
        cluster = getattr(self, "cluster", None)
        if cluster is None:
            return self.ledger
        return cluster.node(deployed.node_name).ledger

    @abstractmethod
    def _move(
        self, source: DeployedFunction, target: DeployedFunction, payload: Payload
    ) -> Payload:
        """Perform the actual transfer and return the delivered payload."""

    def supports(self, source: DeployedFunction, target: DeployedFunction) -> bool:
        """Whether this channel can serve the given placement.  Default: yes."""
        return True

    def transfer(
        self, source: DeployedFunction, target: DeployedFunction, payload: Payload
    ) -> TransferOutcome:
        """Transfer ``payload`` from ``source`` to ``target`` and measure it."""
        if payload.size <= 0:
            raise ChannelError("refusing to transfer an empty payload")
        if not self.supports(source, target):
            raise ChannelError(
                "channel %r does not support a transfer from %r (node %s) to %r (node %s)"
                % (self.mode, source.name, source.node_name, target.name, target.node_name)
            )
        with LedgerWindow(self.ledger, mode=self.mode, payload_bytes=payload.size) as window:
            delivered = self._move(source, target, payload)
        self.transfers += 1
        outcome = TransferOutcome(delivered, window.metrics)
        # Every transfer is integrity-checked; a channel that corrupts or
        # drops data should fail loudly rather than report a great latency.
        outcome.verify_against(payload)
        return outcome
