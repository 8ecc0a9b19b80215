"""Color and depth buffers with byte-accurate addressing and image export.

The color buffer is RGBA8 laid out row-major (scanout order), which gives
the display controller its sequential read pattern while the GPU's tile-
order writes are only piecewise-sequential — the asymmetry case study I's
HMC analysis hinges on.
"""

from __future__ import annotations

import zlib

import numpy as np

PIXEL_BYTES = 4


class Framebuffer:
    """An RGBA color buffer plus a float depth buffer."""

    # Distinct default regions so color/depth/stencil never alias in the
    # shared L2 / DRAM even when no context addresses are supplied.
    DEFAULT_COLOR_BASE = 0x2000_0000
    DEFAULT_DEPTH_BASE = 0x2800_0000
    DEFAULT_STENCIL_BASE = 0x2C00_0000

    def __init__(self, width: int, height: int,
                 color_base: int = DEFAULT_COLOR_BASE,
                 depth_base: int = DEFAULT_DEPTH_BASE,
                 stencil_base: int = DEFAULT_STENCIL_BASE) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("framebuffer dimensions must be positive")
        self.width = width
        self.height = height
        self.color = np.zeros((height, width, 4))
        self.depth = np.ones((height, width))
        self.stencil = np.zeros((height, width), dtype=np.int64)
        self.color_base = color_base
        self.depth_base = depth_base
        self.stencil_base = stencil_base

    def clear(self, color=(0.0, 0.0, 0.0, 1.0), depth: float = 1.0,
              stencil: int = 0) -> None:
        self.color[:] = np.asarray(color, dtype=np.float64)
        self.depth[:] = depth
        self.stencil[:] = stencil

    def bind_addresses(self, color_base: int, depth_base: int,
                       stencil_base: int) -> None:
        """Adopt the owning GL context's buffer addresses (nonzero only)."""
        if color_base:
            self.color_base = color_base
        if depth_base:
            self.depth_base = depth_base
        if stencil_base:
            self.stencil_base = stencil_base

    @property
    def size_bytes(self) -> int:
        return self.width * self.height * PIXEL_BYTES

    def color_address(self, x, y):
        """Byte address(es) of pixel color; accepts scalars or arrays."""
        return self.color_base + (np.asarray(y) * self.width + np.asarray(x)) * PIXEL_BYTES

    def depth_address(self, x, y):
        return self.depth_base + (np.asarray(y) * self.width + np.asarray(x)) * PIXEL_BYTES

    def stencil_address(self, x, y):
        # One byte per stencil value, packed row-major.
        return self.stencil_base + np.asarray(y) * self.width + np.asarray(x)

    def read_stencil(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.stencil[ys, xs]

    def write_stencil(self, xs: np.ndarray, ys: np.ndarray,
                      values: np.ndarray) -> None:
        self.stencil[ys, xs] = np.asarray(values, dtype=np.int64) & 0xFF

    def read_color(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.color[ys, xs]

    def write_color(self, xs: np.ndarray, ys: np.ndarray,
                    rgba: np.ndarray) -> None:
        self.color[ys, xs] = np.clip(rgba, 0.0, 1.0)

    def read_depth(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.depth[ys, xs]

    def write_depth(self, xs: np.ndarray, ys: np.ndarray,
                    values: np.ndarray) -> None:
        self.depth[ys, xs] = values

    def crc(self) -> int:
        """CRC32 of the color plane: the framebuffer identity every
        golden, checkpoint check and bench fingerprint compares."""
        return zlib.crc32(self.color.tobytes())

    def to_rgba8(self) -> np.ndarray:
        return (np.clip(self.color, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)

    def save_ppm(self, path: str) -> None:
        """Write the color buffer as a binary PPM (RGB, alpha dropped)."""
        rgb = self.to_rgba8()[:, :, :3]
        with open(path, "wb") as handle:
            handle.write(f"P6\n{self.width} {self.height}\n255\n".encode())
            handle.write(rgb.tobytes())

    def coverage(self) -> float:
        """Fraction of pixels whose depth was written (cheap render check)."""
        return float(np.mean(self.depth < 1.0))
