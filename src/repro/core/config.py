"""Roadrunner configuration knobs.

The defaults reproduce the paper's system.  The ablation benchmarks flip the
two headline mechanisms off one at a time (zero-copy pipes vs copying pipes,
serialization-free pointer passing vs codec-based transfer) to show that each
contributes to the reported gains.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised for invalid configuration values."""


@dataclass(frozen=True)
class RoadrunnerConfig:
    """Tunable behaviour of the Roadrunner shim and channels."""

    #: Use vmsplice/splice page gifting on the network path.  When False the
    #: network channel degrades to conventional copies (ablation).
    zero_copy: bool = True
    #: Pass pointers/raw memory instead of running a codec.  When False every
    #: transfer serializes like the baselines do (ablation).
    serialization_free: bool = True
    #: Batch multiple socket syscalls per kernel entry (sendmmsg-style).  The
    #: paper lists syscall batching as future work (Sec. 9); it is implemented
    #: here as an opt-in extension.
    syscall_batching: bool = False
    #: How many chunk-sized writes are coalesced per kernel entry when
    #: batching is enabled.
    syscall_batch_factor: int = 8
    #: Size the virtual data hose to the message (True) or keep the kernel's
    #: default pipe size and chunk (False).
    size_hose_to_message: bool = True
    #: Apply bounds checks before every shim read/write (Sec. 3.1).  Disabling
    #: them is not supported in production; the flag exists so tests can show
    #: that the checks are what rejects out-of-bounds access.
    enforce_bounds_checks: bool = True
    #: Require source and target to share workflow and tenant before allowing
    #: user-space (same-VM) transfers.
    enforce_trust_domain: bool = True

    def __post_init__(self) -> None:
        if self.syscall_batch_factor < 1:
            raise ConfigError("syscall_batch_factor must be >= 1")

    @classmethod
    def default(cls) -> "RoadrunnerConfig":
        """The paper's configuration; one shared instance (it is immutable)."""
        return _DEFAULT

    @classmethod
    def no_zero_copy(cls) -> "RoadrunnerConfig":
        """Ablation: keep the shim but copy through the kernel conventionally."""
        return cls(zero_copy=False)

    @classmethod
    def with_serialization(cls) -> "RoadrunnerConfig":
        """Ablation: keep the data paths but serialize like the baselines."""
        return cls(serialization_free=False)

    @classmethod
    def with_syscall_batching(cls, factor: int = 8) -> "RoadrunnerConfig":
        """Extension (paper future work): coalesce socket syscalls."""
        return cls(syscall_batching=True, syscall_batch_factor=factor)

    @property
    def effective_batch_factor(self) -> int:
        """The batch factor the channels should apply (1 when disabled)."""
        return self.syscall_batch_factor if self.syscall_batching else 1


_DEFAULT = RoadrunnerConfig()
