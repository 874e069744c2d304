"""Device memory spaces: global buffers, pointers, shared arrays.

Global memory is a set of typed allocations (numpy-backed). Device
pointers are (allocation, element offset) pairs supporting pointer
arithmetic; all dereferences are bounds-checked so student
out-of-bounds bugs fault deterministically (like ``cuda-memcheck``)
instead of corrupting neighbouring data.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from repro.gpusim.errors import InvalidPointerError, OutOfBoundsError

#: CUDA-C scalar type name -> numpy dtype.
CTYPE_TO_DTYPE: dict[str, np.dtype] = {
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
    "int": np.dtype(np.int32),
    "unsigned": np.dtype(np.uint32),
    "unsigned int": np.dtype(np.uint32),
    "long": np.dtype(np.int64),
    "char": np.dtype(np.int8),
    "unsigned char": np.dtype(np.uint8),
    "bool": np.dtype(np.bool_),
}


def resolve_dtype(dtype: np.dtype | str) -> np.dtype:
    """A CUDA-C type name or numpy dtype spelling as a numpy dtype."""
    if isinstance(dtype, str) and dtype in CTYPE_TO_DTYPE:
        return CTYPE_TO_DTYPE[dtype]
    return np.dtype(dtype)


def allocation_bytes(num_elements: int, dtype: np.dtype | str) -> int:
    """Bytes an allocation would take, computed without allocating, so
    limits are checked before a hostile size is materialized."""
    return int(num_elements) * resolve_dtype(dtype).itemsize

_alloc_ids = itertools.count(1)


class DeviceBuffer:
    """One global-memory allocation on a device."""

    def __init__(self, num_elements: int, dtype: np.dtype | str,
                 read_only: bool = False, label: str = ""):
        dtype = resolve_dtype(dtype)
        if num_elements < 1:
            raise ValueError("allocation must hold at least one element")
        self.alloc_id = next(_alloc_ids)
        self.dtype = np.dtype(dtype)
        self.data = np.zeros(num_elements, dtype=self.dtype)
        self.read_only = read_only
        self.label = label or f"alloc{self.alloc_id}"
        self.freed = False
        # hot-path precomputes (read/byte_address run per simulated
        # memory access; dtype comparisons and property hops add up)
        self._itemsize = int(self.dtype.itemsize)
        self._is_bool = self.dtype == np.bool_
        self._base = self.alloc_id << 40

    @property
    def num_elements(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def _check(self, index: int) -> None:
        if self.freed:
            raise InvalidPointerError(f"use after free of {self.label}")
        if not (0 <= index < self.data.size):
            raise OutOfBoundsError(
                f"index {index} out of bounds for {self.label} "
                f"[{self.data.size} x {self.dtype.name}]"
            )

    def read(self, index: int) -> Any:
        if self.freed or not 0 <= index < self.data.size:
            self._check(index)
        value = self.data[index]
        return bool(value) if self._is_bool else value.item()

    def write(self, index: int, value: Any) -> None:
        if self.freed or not 0 <= index < self.data.size:
            self._check(index)
        if self.read_only:
            raise OutOfBoundsError(f"write to read-only memory {self.label}")
        self.data[index] = value

    def byte_address(self, index: int) -> int:
        """A synthetic flat byte address used by the coalescing model."""
        return self._base + index * self._itemsize

    # -- lane-vector access (warp-SIMD engine) -------------------------------

    def as_ndarray(self) -> np.ndarray:
        """Zero-copy numpy view of the whole allocation."""
        if self.freed:
            raise InvalidPointerError(f"use after free of {self.label}")
        return self.data

    def _check_lanes(self, indices: np.ndarray) -> None:
        """Vectorized bounds check: one unsigned-max reduction on the
        fast path (negatives wrap to huge values), then the exact
        per-index fault of :meth:`_check` for the first offending lane."""
        if self.freed:
            raise InvalidPointerError(f"use after free of {self.label}")
        size = self.data.size
        if len(indices) == 0:
            return
        u = (indices.view(np.uint64) if indices.dtype == np.int64
             else indices.astype(np.uint64))
        if int(u.max()) >= size:
            bad = (indices < 0) | (indices >= size)
            index = int(indices[int(np.argmax(bad))])
            raise OutOfBoundsError(
                f"index {index} out of bounds for {self.label} "
                f"[{size} x {self.dtype.name}]"
            )

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Bounds-checked vector load of ``data[indices]``."""
        self._check_lanes(indices)
        return self.data[indices]

    def scatter(self, indices: np.ndarray, values: Any) -> None:
        """Bounds-checked vector store (duplicate indices: last lane
        wins, matching serial per-lane execution order)."""
        self._check_lanes(indices)
        if self.read_only:
            raise OutOfBoundsError(f"write to read-only memory {self.label}")
        self.data[indices] = values

    def ptr(self, offset: int = 0) -> "DevicePtr":
        return DevicePtr(self, offset)


class DevicePtr:
    """A typed pointer into a :class:`DeviceBuffer` (element-granular)."""

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: DeviceBuffer, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    @property
    def dtype(self) -> np.dtype:
        return self.buffer.dtype

    def __add__(self, n: int) -> "DevicePtr":
        return DevicePtr(self.buffer, self.offset + int(n))

    __radd__ = __add__

    def __sub__(self, n: int) -> "DevicePtr":
        return DevicePtr(self.buffer, self.offset - int(n))

    def read(self, index: int = 0) -> Any:
        return self.buffer.read(self.offset + int(index))

    def write(self, index: int, value: Any) -> None:
        self.buffer.write(self.offset + int(index), value)

    def byte_address(self, index: int = 0) -> int:
        return self.buffer.byte_address(self.offset + int(index))

    def as_array(self, length: int | None = None) -> np.ndarray:
        """Host-side view of the pointed-to elements (for memcpy)."""
        end = None if length is None else self.offset + length
        return self.buffer.data[self.offset:end]

    def __repr__(self) -> str:
        return f"DevicePtr({self.buffer.label}+{self.offset})"


class SharedArray:
    """A per-block ``__shared__`` array.

    Access is bounds-checked; the scheduler's thread context counts
    bank conflicts when threads of a warp hit the same bank.
    """

    __slots__ = ("name", "data", "dtype", "_itemsize", "_cache")

    NUM_BANKS = 32

    def __init__(self, name: str, num_elements: int, dtype: np.dtype | str):
        dtype = resolve_dtype(dtype)
        self.name = name
        self.dtype = np.dtype(dtype)
        self.data = np.zeros(num_elements, dtype=self.dtype)
        self._itemsize = int(self.dtype.itemsize)
        # Python-scalar mirror of ``data``, refreshed on every write():
        # shared reads dominate simulated kernels (tile loops hit each
        # element many times) and a list index is ~20x cheaper than a
        # numpy scalar read + .item(). All writes go through write(),
        # so the mirror cannot go stale.
        self._cache: list[Any] = self.data.tolist()

    @property
    def num_elements(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def _check(self, index: int) -> None:
        if not (0 <= index < self.data.size):
            raise OutOfBoundsError(
                f"index {index} out of bounds for __shared__ {self.name} "
                f"[{self.data.size} x {self.dtype.name}]"
            )

    def read(self, index: int) -> Any:
        if not 0 <= index < self.data.size:
            self._check(index)
        return self._cache[index]

    def write(self, index: int, value: Any) -> None:
        if not 0 <= index < self.data.size:
            self._check(index)
        data = self.data
        data[index] = value  # numpy applies the dtype conversion
        self._cache[index] = data[index].item()

    # -- lane-vector access (warp-SIMD engine) -------------------------------

    def _check_lanes(self, indices: np.ndarray) -> None:
        size = self.data.size
        if len(indices) == 0:
            return
        u = (indices.view(np.uint64) if indices.dtype == np.int64
             else indices.astype(np.uint64))
        if int(u.max()) >= size:
            bad = (indices < 0) | (indices >= size)
            index = int(indices[int(np.argmax(bad))])
            raise OutOfBoundsError(
                f"index {index} out of bounds for __shared__ {self.name} "
                f"[{size} x {self.dtype.name}]"
            )

    def read_lanes(self, indices: np.ndarray) -> np.ndarray:
        """Bounds-checked vector read of ``data[indices]``."""
        self._check_lanes(indices)
        return self.data[indices]

    def write_lanes(self, indices: np.ndarray, values: Any) -> None:
        """Bounds-checked vector write keeping the Python-scalar
        ``_cache`` mirror coherent (duplicate indices: last lane wins,
        like serial per-lane order; numpy fancy assignment matches)."""
        self._check_lanes(indices)
        data = self.data
        data[indices] = values
        cache = self._cache
        for i, v in zip(indices.tolist(), data[indices].tolist()):
            cache[i] = v

    def bank(self, index: int) -> int:
        """Which of the 32 banks a 4-byte word at ``index`` maps to."""
        byte = index * self._itemsize
        return (byte // 4) % self.NUM_BANKS
