"""Unit tests of the fault-injection harness itself.

The crash-safety tests in ``test_recovery.py`` are only as trustworthy
as the harness they lean on, so the harness gets its own contract
checks: crashes land on the exact byte, ``ENOSPC`` leaves the file
usable, plans are shared across handles, and the ``open`` patch always
unwinds.
"""

from __future__ import annotations

import builtins
import errno

import pytest

from repro.testing.faults import (
    FaultPlan,
    FaultyFile,
    SimulatedCrash,
    faulty_open,
    flip_bit,
    truncate_to,
)


class TestCrashAfterBytes:
    def test_crash_lands_on_the_exact_byte(self, tmp_path):
        target = tmp_path / "f.bin"
        plan = FaultPlan(crash_after_bytes=4)
        fh = FaultyFile(open(target, "wb"), plan)
        with pytest.raises(SimulatedCrash):
            fh.write(b"0123456789")
        assert target.read_bytes() == b"0123"
        assert plan.crashed

    def test_budget_spans_multiple_writes(self, tmp_path):
        target = tmp_path / "f.bin"
        plan = FaultPlan(crash_after_bytes=5)
        fh = FaultyFile(open(target, "wb"), plan)
        assert fh.write(b"abc") == 3
        with pytest.raises(SimulatedCrash):
            fh.write(b"defgh")
        assert target.read_bytes() == b"abcde"

    def test_crash_on_boundary_write_succeeds_first(self, tmp_path):
        # A write that exactly exhausts the budget completes; the *next*
        # write dies with zero bytes, like a kill between syscalls.
        target = tmp_path / "f.bin"
        plan = FaultPlan(crash_after_bytes=3)
        fh = FaultyFile(open(target, "wb"), plan)
        assert fh.write(b"abc") == 3
        with pytest.raises(SimulatedCrash):
            fh.write(b"d")
        assert target.read_bytes() == b"abc"

    def test_dead_handle_keeps_raising(self, tmp_path):
        plan = FaultPlan(crash_after_bytes=0)
        fh = FaultyFile(open(tmp_path / "f.bin", "wb"), plan)
        with pytest.raises(SimulatedCrash):
            fh.write(b"x")
        for operation in (
            lambda: fh.write(b"y"),
            fh.flush,
            fh.tell,
            lambda: fh.seek(0),
        ):
            with pytest.raises(SimulatedCrash):
                operation()
        assert fh.closed

    def test_simulated_crash_is_not_an_exception(self):
        # `except Exception` / `except OSError` in production code must
        # not be able to swallow a simulated kill.
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)


class TestCrashAfterOps:
    def test_crash_after_nth_write_call(self, tmp_path):
        target = tmp_path / "f.bin"
        plan = FaultPlan(crash_after_ops=2)
        fh = FaultyFile(open(target, "wb"), plan)
        fh.write(b"aa")
        with pytest.raises(SimulatedCrash):
            fh.write(b"bb")
        # The fatal write itself completes: ops are counted on exit.
        assert target.read_bytes() == b"aabb"


class TestErrorInjection:
    def test_enospc_leaves_the_file_alive(self, tmp_path):
        target = tmp_path / "f.bin"
        plan = FaultPlan(error_after_bytes=2)
        fh = FaultyFile(open(target, "wb"), plan)
        with pytest.raises(OSError) as caught:
            fh.write(b"abcdef")
        assert caught.value.errno == errno.ENOSPC
        assert not isinstance(caught.value, SimulatedCrash)
        # Partial bytes are on disk, as a real short write leaves them.
        assert target.read_bytes() == b"ab"
        # The handle survived: after the disk is "cleaned up", retry works.
        plan.disarm()
        fh.write(b"cdef")
        fh.close()
        assert target.read_bytes() == b"abcdef"

    def test_custom_errno(self, tmp_path):
        plan = FaultPlan(error_after_bytes=0, error_errno=errno.EIO)
        fh = FaultyFile(open(tmp_path / "f.bin", "wb"), plan)
        with pytest.raises(OSError) as caught:
            fh.write(b"x")
        assert caught.value.errno == errno.EIO
        fh.close()


class TestSharedPlan:
    def test_byte_budget_spans_both_files(self, tmp_path):
        # One plan wrapping two handles models a protocol that writes a
        # file pair: the crash point is a position in the whole protocol.
        plan = FaultPlan(crash_after_bytes=6)
        data = FaultyFile(open(tmp_path / "a.bin", "wb"), plan)
        index = FaultyFile(open(tmp_path / "b.bin", "wb"), plan)
        data.write(b"1234")
        data.flush()  # handed to the OS: survives the kill below
        with pytest.raises(SimulatedCrash):
            index.write(b"5678")
        assert (tmp_path / "a.bin").read_bytes() == b"1234"
        assert (tmp_path / "b.bin").read_bytes() == b"56"
        # The shared crash kills every handle on the plan.
        with pytest.raises(SimulatedCrash):
            data.write(b"x")

    def test_unflushed_sibling_buffers_are_lost(self, tmp_path):
        # kill -9 semantics: bytes a sibling handle wrote but never
        # flushed to the OS die with the process.
        plan = FaultPlan(crash_after_bytes=6)
        data = FaultyFile(open(tmp_path / "a.bin", "wb"), plan)
        index = FaultyFile(open(tmp_path / "b.bin", "wb"), plan)
        data.write(b"1234")  # stays in the userspace buffer
        with pytest.raises(SimulatedCrash):
            index.write(b"5678")
        assert (tmp_path / "a.bin").read_bytes() == b""


class TestFaultyOpen:
    def test_patches_matching_binary_writes_only(self, tmp_path):
        victim = tmp_path / "victim.bin"
        bystander = tmp_path / "bystander.bin"
        plan = FaultPlan(crash_after_bytes=1)
        with faulty_open("victim", plan):
            with open(bystander, "wb") as fh:
                fh.write(b"unharmed")
            with pytest.raises(SimulatedCrash):
                with open(victim, "wb") as fh:
                    fh.write(b"doomed")
        assert bystander.read_bytes() == b"unharmed"
        assert victim.read_bytes() == b"d"

    def test_open_is_restored_even_after_a_crash(self, tmp_path):
        real_open = builtins.open
        plan = FaultPlan(crash_after_bytes=0)
        with pytest.raises(SimulatedCrash):
            with faulty_open("boom", plan):
                with open(tmp_path / "boom.bin", "wb") as fh:
                    fh.write(b"x")
        assert builtins.open is real_open

    def test_reads_are_never_wrapped(self, tmp_path):
        target = tmp_path / "victim.bin"
        target.write_bytes(b"payload")
        plan = FaultPlan(crash_after_bytes=0)
        with faulty_open("victim", plan):
            with open(target, "rb") as fh:
                assert fh.read() == b"payload"


class TestAtRestCorruption:
    def test_flip_bit(self, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(bytes([0b0000_0000] * 4))
        flip_bit(target, 2, bit=3)
        assert target.read_bytes() == bytes([0, 0, 0b0000_1000, 0])
        flip_bit(target, 2, bit=3)  # flipping twice restores the file
        assert target.read_bytes() == bytes(4)

    def test_truncate_to(self, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(b"0123456789")
        truncate_to(target, 4)
        assert target.read_bytes() == b"0123"
