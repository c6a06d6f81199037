"""Container and Wasm images.

Fig. 2a contrasts a ~77 MB Docker image against a ~3.19 MB Wasm binary for the
same function; image size drives pull/unpack time and therefore cold start.
"""

from __future__ import annotations

from dataclasses import dataclass

MiB = 1024 * 1024


class ImageError(ValueError):
    """Raised for invalid image definitions."""


@dataclass(frozen=True)
class ContainerImage:
    """An OCI container image (base OS layers + application layer)."""

    name: str
    size_bytes: int = 77 * MiB

    def __post_init__(self) -> None:
        if not self.name:
            raise ImageError("image name must be non-empty")
        if self.size_bytes <= 0:
            raise ImageError("image size must be positive")

    @classmethod
    def hello_world(cls) -> "ContainerImage":
        """The paper's "Hello World" container (~76.9 MB)."""
        return cls(name="hello-world:latest", size_bytes=int(76.9 * MiB))

    @classmethod
    def resize_image(cls) -> "ContainerImage":
        """The paper's "Resize Image" container (~76.8 MB)."""
        return cls(name="resize-image:latest", size_bytes=int(76.8 * MiB))


@dataclass(frozen=True)
class WasmImage:
    """A Wasm binary packaged for distribution (no base OS)."""

    name: str
    size_bytes: int = int(3.19 * MiB)

    def __post_init__(self) -> None:
        if not self.name:
            raise ImageError("image name must be non-empty")
        if self.size_bytes <= 0:
            raise ImageError("image size must be positive")

    @classmethod
    def hello_world(cls) -> "WasmImage":
        """The paper's "Hello World" Wasm binary (~47.8 KB)."""
        return cls(name="hello-world.wasm", size_bytes=47_800)

    @classmethod
    def resize_image(cls) -> "WasmImage":
        """The paper's "Resize Image" Wasm binary (~3.19 MB)."""
        return cls(name="resize-image.wasm", size_bytes=int(3.19 * MiB))
