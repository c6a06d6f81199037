"""Network interface cards.

The NIC's role in the reproduction is to charge the (small) per-packet
kernel work of driving the device for the bytes handed to the wire.  Roadrunner explicitly does *not* bypass the NIC/kernel
the way RDMA does (Sec. 4.3), so both Roadrunner and the baselines pass
through here.
"""

from __future__ import annotations

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.sim.ledger import CostCategory, CpuDomain

#: Per-packet driver/interrupt cost, folded across interrupt coalescing.
PER_PACKET_SECONDS = 0.15e-6

#: Ethernet MTU: the payload bytes of one packet.
MTU_BYTES = 1500


class Nic:
    """A node's network interface."""

    def __init__(self, kernel: Kernel, name: str = "eth0") -> None:
        self.kernel = kernel
        self.name = name

    def _packets(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 1
        return -(-nbytes // MTU_BYTES)

    def transmit(self, process: Process, nbytes: int) -> float:
        """Charge the driver work of sending ``nbytes``."""
        packets = self._packets(nbytes)
        seconds = packets * PER_PACKET_SECONDS
        self.kernel.ledger.charge(
            CostCategory.NETWORK,
            seconds,
            cpu_domain=CpuDomain.KERNEL,
            label="nic-tx:%s" % self.name,
        )
        process.charge_cpu(CpuDomain.KERNEL, seconds)
        return seconds

    def receive(self, process: Process, nbytes: int) -> float:
        """Charge the driver work of receiving ``nbytes``."""
        packets = self._packets(nbytes)
        seconds = packets * PER_PACKET_SECONDS
        self.kernel.ledger.charge(
            CostCategory.NETWORK,
            seconds,
            cpu_domain=CpuDomain.KERNEL,
            label="nic-rx:%s" % self.name,
        )
        process.charge_cpu(CpuDomain.KERNEL, seconds)
        return seconds
