"""Property-based tests: the RAM digest, paging, segmentation
protection, cycle budget, and the event queue."""

import hashlib
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hw.mem import DIGEST_CHUNK_SHIFT, GEN_PAGE_SHIFT, PhysicalMemory
from repro.hw.paging import (
    PAGE_SIZE,
    Mmu,
    PageFault,
    PageTableBuilder,
    span_pages,
)
from repro.hw.seg import SegmentDescriptor
from repro.sim.budget import CycleBudget
from repro.sim.events import EventQueue
from repro.vmm.protect import compress_descriptor, guest_can_reach

import pytest


CHUNK = 1 << DIGEST_CHUNK_SHIFT
GEN_PAGE = 1 << GEN_PAGE_SHIFT
#: Five whole digest chunks and a ragged tail that is not a whole page.
RAM_SIZE = 5 * CHUNK + 3000

#: Addresses anywhere, or within a few bytes of a page or chunk edge.
_addresses = st.one_of(
    st.integers(min_value=0, max_value=RAM_SIZE - 1),
    st.builds(lambda edge, delta: edge * GEN_PAGE + delta,
              st.integers(min_value=0, max_value=RAM_SIZE // GEN_PAGE),
              st.integers(min_value=-4, max_value=3)),
    st.builds(lambda edge, delta: edge * CHUNK + delta,
              st.integers(min_value=0, max_value=RAM_SIZE // CHUNK),
              st.integers(min_value=-4, max_value=3)))
_lengths = st.one_of(st.integers(min_value=0, max_value=64),
                     st.integers(min_value=0, max_value=CHUNK + GEN_PAGE))
_memory_ops = st.one_of(
    st.tuples(st.just("write"), _addresses, _lengths, st.integers()),
    st.tuples(st.just("fill"), _addresses, _lengths,
              st.integers(min_value=0, max_value=255)),
    st.tuples(st.sampled_from(["u8", "u16", "u32"]), _addresses,
              st.integers(min_value=0, max_value=0xFFFFFFFF)),
    st.tuples(st.just("restore"), st.integers()),
    st.tuples(st.just("digest")))


def _apply(memory, op):
    """Apply one generated operation, clamped to fit inside RAM."""
    kind = op[0]
    if kind == "write":
        _, addr, length, seed = op
        addr = max(0, min(addr, memory.size - length))
        memory.write(addr, random.Random(seed).randbytes(length))
    elif kind == "fill":
        _, addr, length, value = op
        addr = max(0, min(addr, memory.size - length))
        memory.fill(addr, length, value)
    elif kind in ("u8", "u16", "u32"):
        _, addr, value = op
        width = {"u8": 1, "u16": 2, "u32": 4}[kind]
        addr = max(0, min(addr, memory.size - width))
        getattr(memory, f"write_{kind}")(addr, value)
    elif kind == "restore":
        memory.write(0, random.Random(op[1]).randbytes(memory.size))


def _full_copy_hex(memory):
    return hashlib.sha256(memory.read(0, memory.size)).hexdigest()


class TestRamDigestProperties:
    @given(ops=st.lists(_memory_ops, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_digest_equals_hash_of_full_copy(self, ops):
        memory = PhysicalMemory(RAM_SIZE)
        for op in ops:
            _apply(memory, op)
            if op[0] == "digest":
                assert memory.sha256_hex() == _full_copy_hex(memory)
        assert memory.sha256_hex() == _full_copy_hex(memory)
        assert memory.sha256_hex() == _full_copy_hex(memory)

    @given(ops=st.lists(st.tuples(st.booleans(), _memory_ops), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_instances_never_share_a_cache(self, ops):
        pair = (PhysicalMemory(RAM_SIZE), PhysicalMemory(RAM_SIZE))
        for second, op in ops:
            _apply(pair[second], op)
            for memory in pair:
                assert memory.sha256_hex() == _full_copy_hex(memory)

    @given(addr=_addresses, length=_lengths, op=_memory_ops)
    @settings(max_examples=100, deadline=None)
    def test_read_is_an_independent_copy(self, addr, length, op):
        memory = PhysicalMemory(RAM_SIZE)
        _apply(memory, ("restore", 7))
        addr = max(0, min(addr, RAM_SIZE - length))
        before = memory.read(addr, length)
        expected = bytes(bytearray(before))
        _apply(memory, op)
        memory.fill(0, RAM_SIZE, 0xA5)
        assert type(before) is bytes
        assert before == expected


class TestSpanPages:
    @given(addr=st.integers(min_value=0, max_value=1 << 30),
           length=st.integers(min_value=1, max_value=5 * PAGE_SIZE))
    def test_chunks_tile_exactly(self, addr, length):
        chunks = list(span_pages(addr, length))
        assert chunks[0][0] == addr
        assert sum(size for _, size in chunks) == length
        cursor = addr
        for start, size in chunks:
            assert start == cursor
            # No chunk crosses a page boundary.
            assert (start // PAGE_SIZE) == ((start + size - 1) // PAGE_SIZE)
            cursor += size


class TestPagingProperties:
    @given(mappings=st.dictionaries(
        st.integers(min_value=0, max_value=200),      # virtual page no.
        st.integers(min_value=16, max_value=200),     # physical frame no.
        min_size=1, max_size=24),
        probe_offset=st.integers(min_value=0, max_value=PAGE_SIZE - 1))
    @settings(max_examples=100, deadline=None)
    def test_translation_matches_mapping(self, mappings, probe_offset):
        memory = PhysicalMemory(4 << 20)
        builder = PageTableBuilder(memory, alloc_base=0x1000)
        for vpn, frame in mappings.items():
            builder.map(vpn * PAGE_SIZE, frame * PAGE_SIZE)
        mmu = Mmu(memory)
        mmu.set_cr3(builder.directory)
        for vpn, frame in mappings.items():
            got = mmu.translate(vpn * PAGE_SIZE + probe_offset,
                                write=False, user=False)
            assert got == frame * PAGE_SIZE + probe_offset

    @given(mapped=st.sets(st.integers(min_value=0, max_value=100),
                          min_size=1, max_size=10),
           probe=st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_unmapped_pages_always_fault(self, mapped, probe):
        assume(probe not in mapped)
        memory = PhysicalMemory(4 << 20)
        builder = PageTableBuilder(memory, alloc_base=0x1000)
        for vpn in mapped:
            builder.map(vpn * PAGE_SIZE, 0x200000)
        mmu = Mmu(memory)
        mmu.set_cr3(builder.directory)
        with pytest.raises(PageFault):
            mmu.translate(probe * PAGE_SIZE, write=False, user=False)


class TestProtectionProperties:
    @given(base=st.integers(min_value=0, max_value=0xF0_0000),
           limit=st.integers(min_value=0, max_value=0x100_0000),
           dpl=st.integers(min_value=0, max_value=3),
           code=st.booleans(),
           probe=st.integers(min_value=0, max_value=0x200_0000))
    @settings(max_examples=300)
    def test_compressed_descriptor_never_reaches_monitor(self, base,
                                                         limit, dpl,
                                                         code, probe):
        """THE protection invariant: no offset through any compressed
        descriptor lands in the monitor region, and the compressed DPL
        is never ring 0."""
        monitor_base = 0xF0_0000
        descriptor = SegmentDescriptor(base, limit, dpl, code=code)
        shadowed = compress_descriptor(descriptor, monitor_base)
        assert shadowed.dpl >= 1
        assert not guest_can_reach(shadowed, probe, monitor_base)

    @given(base=st.integers(min_value=0, max_value=0xE0_0000),
           limit=st.integers(min_value=1, max_value=0x10_0000),
           dpl=st.integers(min_value=0, max_value=3))
    @settings(max_examples=100)
    def test_compression_preserves_guest_reachable_space(self, base,
                                                         limit, dpl):
        """Compression must not steal space the guest legitimately has
        (anything already below the monitor)."""
        monitor_base = 0xF0_0000
        descriptor = SegmentDescriptor(base, limit, dpl)
        shadowed = compress_descriptor(descriptor, monitor_base)
        reachable_before = min(limit, max(monitor_base - base, 0))
        assert shadowed.limit == reachable_before


class TestBudgetProperties:
    @given(charges=st.lists(
        st.tuples(st.sampled_from(["guest", "copy", "world_switch",
                                   "emulation", "interrupt"]),
                  st.integers(min_value=0, max_value=10**9)),
        min_size=0, max_size=50))
    def test_total_is_sum_of_categories(self, charges):
        budget = CycleBudget()
        for category, cycles in charges:
            budget.charge(cycles, category)
        assert budget.total == sum(budget.by_category().values())
        assert budget.total == sum(c for _, c in charges)

    @given(charges=st.lists(st.integers(min_value=0, max_value=10**6),
                            min_size=1, max_size=20),
           window=st.integers(min_value=1, max_value=10**7))
    def test_load_clamped_demand_unclamped(self, charges, window):
        budget = CycleBudget()
        for cycles in charges:
            budget.charge(cycles)
        assert 0 <= budget.load(window) <= 1
        assert budget.demanded_load(window) * window == \
            pytest.approx(budget.total)


class TestEventQueueProperties:
    @given(times=st.lists(st.integers(min_value=0, max_value=10**6),
                          min_size=1, max_size=50))
    def test_events_fire_in_nondecreasing_time_order(self, times):
        queue = EventQueue()
        fired = []
        for time in times:
            queue.schedule_at(time, lambda t=time: fired.append(t))
        queue.run()
        assert fired == sorted(times)
        assert len(fired) == len(times)

    @given(times=st.lists(st.integers(min_value=0, max_value=1000),
                          min_size=1, max_size=30),
           cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30))
    def test_cancelled_events_never_fire(self, times, cancel_mask):
        queue = EventQueue()
        fired = []
        events = [queue.schedule_at(t, lambda t=t: fired.append(t))
                  for t in times]
        expected = []
        for event, time, cancel in zip(events, times,
                                       cancel_mask * len(times)):
            if cancel:
                event.cancel()
            else:
                expected.append(time)
        queue.run()
        assert fired == sorted(expected)
