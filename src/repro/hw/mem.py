"""Physical memory for the simulated target machine."""

from __future__ import annotations

import hashlib
import struct

from repro.errors import MemoryError_

#: Page granularity of the write-generation bookkeeping (matches the MMU).
GEN_PAGE_SHIFT = 12

#: Span of RAM hashed between two saved sha256 midstates in
#: :meth:`PhysicalMemory.sha256_hex` (64 KiB, sixteen generation pages).
DIGEST_CHUNK_SHIFT = 16


class PhysicalMemory:
    """A flat byte-addressable RAM with bounds checking.

    All CPU, DMA and monitor accesses ultimately land here.  Accessors are
    little-endian, matching the PC/AT heritage of the modelled platform.

    Every write bumps a per-page generation counter (:attr:`page_gens`).
    Translation-cache-style consumers — the CPU's decoded-instruction
    cache — snapshot the generation of the pages an entry depends on and
    treat a mismatch as "this code may have been overwritten", which
    makes self-modifying code and DMA into code pages correct without
    interposing on the read path at all.  :meth:`sha256_hex` relies on
    the same invariant to re-hash only what changed.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise MemoryError_(f"memory size must be positive, got {size}")
        self.size = size
        self._data = bytearray(size)
        #: Write-generation counter per physical page, bumped on any
        #: store that touches the page (CPU, DMA or monitor alike).
        self.page_gens = [0] * ((size + (1 << GEN_PAGE_SHIFT) - 1)
                                >> GEN_PAGE_SHIFT)
        # sha256_hex cache: the midstate before each chunk, the
        # page_gens they were computed at, and the finished hex digest.
        self._midstates = [hashlib.sha256()]
        self._hashed_gens: list = []
        self._hex = ""

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise MemoryError_(
                f"physical access [{addr:#x}, {addr + length:#x}) outside "
                f"installed RAM of {self.size:#x} bytes")

    def _bump(self, addr: int, length: int) -> None:
        gens = self.page_gens
        first = addr >> GEN_PAGE_SHIFT
        last = (addr + length - 1) >> GEN_PAGE_SHIFT if length > 1 else first
        gens[first] += 1
        if last != first:
            for page in range(first + 1, last + 1):
                gens[page] += 1

    def page_generation(self, page: int) -> int:
        """Current write generation of physical page ``page``."""
        return self.page_gens[page]

    # -- bulk accessors ------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        return bytes(memoryview(self._data)[addr:addr + length])

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self._data[addr:addr + len(data)] = data
        if data:
            self._bump(addr, len(data))

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        self._check(addr, length)
        self._data[addr:addr + length] = bytes([value & 0xFF]) * length
        if length:
            self._bump(addr, length)

    def sha256_hex(self) -> str:
        """sha256 hex digest of all of RAM.

        Always equal to ``hashlib.sha256(self.read(0, self.size))
        .hexdigest()``, but hashes the buffer in place and keeps the
        sha256 midstate at every ``1 << DIGEST_CHUNK_SHIFT`` boundary
        together with the :attr:`page_gens` it was computed at.  A later
        call resumes from the midstate before the first chunk whose
        generations moved, so it re-hashes only from there to the end of
        RAM, and returns the cached digest when nothing moved.  That is
        sound because every store bumps ``page_gens``; nothing outside
        this class touches the buffer.

        ``hashlib`` drops the GIL while it hashes, so a thread writing
        RAM during this call would race with it: call it only from the
        thread that runs the machine.
        """
        gens = self.page_gens
        hashed = self._hashed_gens
        if gens == hashed:
            return self._hex
        chunk_size = 1 << DIGEST_CHUNK_SHIFT
        per_chunk = chunk_size >> GEN_PAGE_SHIFT
        midstates = self._midstates
        first = 0
        if hashed:
            while gens[first:first + per_chunk] \
                    == hashed[first:first + per_chunk]:
                first += per_chunk
        chunk = first // per_chunk
        del midstates[chunk + 1:]
        digest = midstates[chunk].copy()
        with memoryview(self._data) as view:
            for start in range(chunk * chunk_size, self.size, chunk_size):
                digest.update(view[start:start + chunk_size])
                midstates.append(digest.copy())
        self._hashed_gens = list(gens)
        self._hex = digest.hexdigest()
        return self._hex

    # -- scalar accessors ------------------------------------------------------

    def read_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return self._data[addr]

    def write_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._data[addr] = value & 0xFF
        self.page_gens[addr >> GEN_PAGE_SHIFT] += 1

    def read_u16(self, addr: int) -> int:
        self._check(addr, 2)
        return struct.unpack_from("<H", self._data, addr)[0]

    def write_u16(self, addr: int, value: int) -> None:
        self._check(addr, 2)
        struct.pack_into("<H", self._data, addr, value & 0xFFFF)
        self._bump(addr, 2)

    def read_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return struct.unpack_from("<I", self._data, addr)[0]

    def write_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        struct.pack_into("<I", self._data, addr, value & 0xFFFFFFFF)
        self._bump(addr, 4)
