"""DDR command records."""

import pytest

from repro.dram.commands import CACHELINE_SIZE, Command, CommandType


def test_write_burst_must_be_full_line():
    with pytest.raises(ValueError):
        Command(kind=CommandType.WRCAS, cycle=0, data=b"short")
    Command(kind=CommandType.WRCAS, cycle=0, data=bytes(CACHELINE_SIZE))


def test_read_needs_no_data():
    command = Command(kind=CommandType.RDCAS, cycle=5, address=0x1000)
    assert command.data == b""
