"""Device specifications and the device object.

A :class:`DeviceSpec` captures the architectural parameters the timing
model and launch validation need; a :class:`Device` owns global-memory
allocations and accumulated profiling statistics. Three presets span
the GPU generations the course used between 2013 and 2016.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.errors import (
    InvalidPointerError,
    LaunchConfigError,
    OutOfMemoryError,
)
from repro.gpusim.grid import Dim3
from repro.gpusim.memory import DeviceBuffer, allocation_bytes


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural parameters of one simulated GPU model."""

    name: str
    compute_capability: tuple[int, int]
    num_sms: int
    warp_size: int = 32
    max_threads_per_block: int = 1024
    max_block_dim: tuple[int, int, int] = (1024, 1024, 64)
    max_grid_dim: tuple[int, int, int] = (2**31 - 1, 65535, 65535)
    shared_mem_per_block: int = 48 * 1024
    global_mem_bytes: int = 4 * 1024**3
    clock_ghz: float = 0.7
    mem_bandwidth_gbs: float = 200.0
    cores_per_sm: int = 192
    max_threads_per_sm: int = 2048
    max_blocks_per_sm: int = 16
    shared_mem_per_sm: int = 48 * 1024

    @property
    def peak_gflops(self) -> float:
        """Single-precision FMA peak (2 flops per core per cycle)."""
        return self.num_sms * self.cores_per_sm * self.clock_ghz * 2.0


FERMI_C2050 = DeviceSpec(
    name="Fermi C2050", compute_capability=(2, 0), num_sms=14,
    max_threads_per_block=1024, shared_mem_per_block=48 * 1024,
    global_mem_bytes=3 * 1024**3, clock_ghz=1.15,
    mem_bandwidth_gbs=144.0, cores_per_sm=32,
)

KEPLER_K20 = DeviceSpec(
    name="Kepler K20", compute_capability=(3, 5), num_sms=13,
    max_threads_per_block=1024, shared_mem_per_block=48 * 1024,
    global_mem_bytes=5 * 1024**3, clock_ghz=0.706,
    mem_bandwidth_gbs=208.0, cores_per_sm=192,
)

PASCAL_P100 = DeviceSpec(
    name="Pascal P100", compute_capability=(6, 0), num_sms=56,
    max_threads_per_block=1024, shared_mem_per_block=64 * 1024,
    global_mem_bytes=16 * 1024**3, clock_ghz=1.328,
    mem_bandwidth_gbs=732.0, cores_per_sm=64,
)


@dataclass(frozen=True)
class OccupancyReport:
    """cudaOccupancyMaxActiveBlocksPerMultiprocessor equivalent.

    The course's occupancy lessons: which resource (threads, blocks, or
    shared memory) caps the number of resident blocks per SM, and what
    fraction of the SM's warp slots that leaves active.
    """

    active_blocks_per_sm: int
    active_warps_per_sm: int
    max_warps_per_sm: int
    limiter: str    # "threads" | "blocks" | "shared_memory" | "block_size"

    @property
    def occupancy(self) -> float:
        """Active warps over the SM's warp capacity (0.0 - 1.0)."""
        if self.max_warps_per_sm == 0:
            return 0.0
        return self.active_warps_per_sm / self.max_warps_per_sm


@dataclass
class DeviceProperties:
    """The subset of ``cudaDeviceProp`` the Device Query lab prints."""

    name: str
    compute_capability: tuple[int, int]
    multiprocessor_count: int
    total_global_mem: int
    shared_mem_per_block: int
    warp_size: int
    max_threads_per_block: int
    max_block_dim: tuple[int, int, int]
    max_grid_dim: tuple[int, int, int]
    clock_rate_khz: int


class Device:
    """One simulated GPU: allocations, limits, and profiling totals."""

    def __init__(self, spec: DeviceSpec = KEPLER_K20, device_id: int = 0):
        self.spec = spec
        self.device_id = device_id
        self._allocs: dict[int, DeviceBuffer] = {}
        self.bytes_allocated = 0
        self.peak_bytes_allocated = 0
        self.kernels_launched = 0
        self.total_kernel_seconds = 0.0

    # -- memory management ----------------------------------------------

    def malloc(self, num_elements: int, dtype: np.dtype | str,
               label: str = "", read_only: bool = False) -> DeviceBuffer:
        nbytes = allocation_bytes(num_elements, dtype)
        if self.bytes_allocated + nbytes > self.spec.global_mem_bytes:
            raise OutOfMemoryError(
                f"cudaMalloc of {nbytes} bytes failed: "
                f"{self.bytes_allocated} of {self.spec.global_mem_bytes} in use"
            )
        buf = DeviceBuffer(num_elements, dtype, read_only=read_only, label=label)
        self._allocs[buf.alloc_id] = buf
        self.bytes_allocated += buf.nbytes
        self.peak_bytes_allocated = max(self.peak_bytes_allocated,
                                        self.bytes_allocated)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        if buf.alloc_id not in self._allocs:
            raise InvalidPointerError(
                f"cudaFree of unknown or already-freed buffer {buf.label}"
            )
        del self._allocs[buf.alloc_id]
        self.bytes_allocated -= buf.nbytes
        buf.freed = True

    @property
    def live_allocations(self) -> int:
        return len(self._allocs)

    # -- launch validation -------------------------------------------------

    def validate_launch(self, grid: Dim3, block: Dim3,
                        shared_bytes: int = 0) -> None:
        spec = self.spec
        if block.count > spec.max_threads_per_block:
            raise LaunchConfigError(
                f"block of {block.count} threads exceeds limit "
                f"{spec.max_threads_per_block}"
            )
        for axis, (have, limit) in enumerate(
            zip((block.x, block.y, block.z), spec.max_block_dim)
        ):
            if have > limit:
                raise LaunchConfigError(
                    f"blockDim.{'xyz'[axis]}={have} exceeds limit {limit}"
                )
        for axis, (have, limit) in enumerate(
            zip((grid.x, grid.y, grid.z), spec.max_grid_dim)
        ):
            if have > limit:
                raise LaunchConfigError(
                    f"gridDim.{'xyz'[axis]}={have} exceeds limit {limit}"
                )
        if shared_bytes > spec.shared_mem_per_block:
            raise LaunchConfigError(
                f"{shared_bytes} bytes of shared memory exceeds per-block "
                f"limit {spec.shared_mem_per_block}"
            )

    # -- occupancy ----------------------------------------------------------

    def occupancy(self, threads_per_block: int,
                  shared_bytes_per_block: int = 0) -> OccupancyReport:
        """How many blocks of this shape can be resident per SM."""
        spec = self.spec
        if not (1 <= threads_per_block <= spec.max_threads_per_block):
            raise LaunchConfigError(
                f"block of {threads_per_block} threads is not launchable")
        if shared_bytes_per_block > spec.shared_mem_per_block:
            raise LaunchConfigError(
                f"{shared_bytes_per_block} bytes of shared memory exceeds "
                f"the per-block limit {spec.shared_mem_per_block}")
        by_threads = spec.max_threads_per_sm // threads_per_block
        by_blocks = spec.max_blocks_per_sm
        if shared_bytes_per_block > 0:
            by_shared = spec.shared_mem_per_sm // shared_bytes_per_block
        else:
            by_shared = by_blocks
        blocks = max(0, min(by_threads, by_blocks, by_shared))
        if blocks == by_shared and by_shared < min(by_threads, by_blocks):
            limiter = "shared_memory"
        elif blocks == by_threads and by_threads < min(by_blocks, by_shared):
            limiter = "threads"
        else:
            limiter = "blocks"
        warp_size = spec.warp_size
        warps_per_block = (threads_per_block + warp_size - 1) // warp_size
        max_warps = spec.max_threads_per_sm // warp_size
        return OccupancyReport(
            active_blocks_per_sm=blocks,
            active_warps_per_sm=min(blocks * warps_per_block, max_warps),
            max_warps_per_sm=max_warps,
            limiter=limiter)

    # -- introspection -----------------------------------------------------

    def properties(self) -> DeviceProperties:
        """cudaGetDeviceProperties equivalent (Device Query lab)."""
        spec = self.spec
        return DeviceProperties(
            name=spec.name,
            compute_capability=spec.compute_capability,
            multiprocessor_count=spec.num_sms,
            total_global_mem=spec.global_mem_bytes,
            shared_mem_per_block=spec.shared_mem_per_block,
            warp_size=spec.warp_size,
            max_threads_per_block=spec.max_threads_per_block,
            max_block_dim=spec.max_block_dim,
            max_grid_dim=spec.max_grid_dim,
            clock_rate_khz=int(spec.clock_ghz * 1e6),
        )
