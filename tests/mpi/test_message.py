"""Wire-size accounting tests for the simulated network."""

from __future__ import annotations

import pytest

from repro.core import messages as msg
from repro.mpi.message import Envelope, payload_nbytes


class TestPayloadNbytes:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_bytes(self):
        assert payload_nbytes(b"12345") == 5
        assert payload_nbytes(bytearray(10)) == 10
        assert payload_nbytes(memoryview(b"123")) == 3

    def test_str(self):
        assert payload_nbytes("abc") == 3

    def test_scalars(self):
        assert payload_nbytes(42) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(True) == 8

    def test_containers_recursive(self):
        assert payload_nbytes([b"12", b"34"]) == 8 + 4
        assert payload_nbytes((b"12",)) == 8 + 2
        assert payload_nbytes({b"k": b"vvv"}) == 8 + 4

    def test_nested(self):
        inner = [b"1234"]  # 8 + 4
        assert payload_nbytes([inner, inner]) == 8 + 2 * 12

    def test_wire_nbytes_protocol(self):
        class Sized:
            def wire_nbytes(self):
                return 1234

        assert payload_nbytes(Sized()) == 1234

    def test_opaque_object_flat_charge(self):
        class Opaque:
            pass

        assert payload_nbytes(Opaque()) == 64


class TestKvMessageSizes:
    def test_migrate_msg_counts_pairs(self):
        m = msg.PairsMsg([(b"key", b"value", False)], seq=1)
        assert m.wire_nbytes() == 24 + 3 + 5 + 9
        # the membership stamp travels on every carrier: 4 B per dead rank
        stamped = msg.PairsMsg([(b"key", b"value", False)], 1, 3, (2, 5))
        assert stamped.wire_nbytes() == m.wire_nbytes() + 8

    def test_put_sync_msg(self):
        m = msg.PairsMsg([(b"k", b"vv", False)], seq=1, sync=True)
        assert m.wire_nbytes() == 24 + 1 + 2 + 9
        two = msg.PairsMsg([(b"k", b"vv", False), (b"d", b"", True)], 2,
                           sync=True)
        assert two.wire_nbytes() == m.wire_nbytes() + 1 + 9

    def test_get_msg(self):
        assert msg.GetMsg([b"key"], 0, 1).wire_nbytes() == 24 + 3 + 4
        assert msg.GetMsg([b"key", b"k2"], 0, 1).wire_nbytes() == \
            24 + (3 + 4) + (2 + 4)

    def test_get_reply_value_dominates(self):
        small = msg.GetReply([(msg.FOUND, b"", False)], 1)
        big = msg.GetReply([(msg.FOUND, b"x" * 1000, False)], 1)
        assert small.wire_nbytes() == 24 + 9
        assert big.wire_nbytes() - small.wire_nbytes() == 1000
        miss = msg.GetReply([(msg.NOT_IN_MEMORY, None, False)], 1,
                            owner_dir="db/rank1", newest_ssid=3)
        assert miss.wire_nbytes() == small.wire_nbytes()

    def test_ack_and_stop_tiny(self):
        assert msg.AckMsg(1).wire_nbytes() == 24
        assert msg.AckMsg(1, 2, (0, 3), applied=False).wire_nbytes() == 32
        assert msg.StopMsg().wire_nbytes() <= 16


class TestEnvelope:
    def test_fields(self):
        e = Envelope(0, 1, 7, b"data", 0.5, 4)
        assert (e.source, e.dest, e.tag) == (0, 1, 7)
        assert e.payload == b"data"
        assert e.arrival == 0.5
        assert e.nbytes == 4
