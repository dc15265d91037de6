"""An MDHIM-like parallel embedded KVS (the Figure 11 comparator).

MDHIM "presents a communication/distribution layer on top of the local
data store such as LevelDB"; the paper attributes its deficit to two
structural properties, both reproduced here:

* **duplicated memory structures** — the distribution layer marshals
  every key/value into its own message buffer, and the local store
  (MiniKV) then copies it again into its MemTable; PapyrusKV's single
  framework pays one copy;
* **no SSTable sharing** — every remote get ships the value over the
  network even when requester and owner share an NVM device, because
  "MDHIM cannot share the SSTables between multiple independent LevelDB
  instances".

Like MDHIM, all operations are synchronous request/response — there is
no relaxed-mode write staging.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.minikv import MiniKV
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, AbortedError, Comm
from repro.mpi.launcher import RankContext, bind_context
from repro.simtime.clock import VirtualClock
from repro.util.hashing import owner_rank

_PUT = 1
_GET = 2
_STOP = 4


@dataclass
class _Req:
    kind: int
    key: bytes
    value: bytes
    seq: int

    def wire_nbytes(self) -> int:
        return 24 + len(self.key) + len(self.value)


@dataclass
class _Rsp:
    seq: int
    found: bool
    value: bytes = b""

    def wire_nbytes(self) -> int:
        return 16 + len(self.value)


class MDHIM:
    """Per-rank handle to one MDHIM-like distributed store.

    Collective constructor: every rank must create it at the same point.

    Parameters
    ----------
    ctx: the rank's context.
    name: store name (directory prefix).
    repository: ``"nvm"`` or ``"lustre"`` — Figure 11 runs both.
    memtable_capacity: MiniKV write-buffer size in bytes.
    """

    def __init__(
        self,
        ctx: RankContext,
        name: str,
        repository: str = "nvm",
        memtable_capacity: int = 1 << 20,
    ) -> None:
        self.ctx = ctx
        self.name = name
        self.rank = ctx.world_rank
        self.nranks = ctx.nranks
        self._srv: Comm = ctx.comm.dup()
        self._rsp: Comm = ctx.comm.dup()
        self._coll: Comm = ctx.comm.dup()
        machine = ctx.machine
        store = (
            machine.nvm_store(self.rank)
            if repository == "nvm" else machine.lustre_store()
        )
        self.local = MiniKV(
            store, f"mdhim_{name}/rank{self.rank}",
            memtable_capacity=memtable_capacity, cpu=ctx.system.cpu,
        )
        self._next_seq = self.rank + 1
        self._closed = False
        self._server = threading.Thread(
            target=self._server_main, name=f"mdhim-srv-{name}-r{self.rank}",
            daemon=True,
        )
        self._coll.barrier()
        self._server.start()
        self._coll.barrier()

    # -------------------------------------------------------------- dispatch
    def _owner(self, key: bytes) -> int:
        return owner_rank(key, self.nranks)

    def _marshal_charge(self, nbytes: int) -> None:
        """The distribution layer's own buffer copy (duplicated memory)."""
        cpu = self.ctx.system.cpu
        self.ctx.clock.advance(cpu.kv_op_s + nbytes / cpu.memcpy_Bps)

    def put(self, key: bytes, value: bytes) -> None:
        """Synchronous put through the distribution layer."""
        self._check_open()
        key, value = bytes(key), bytes(value)
        self._marshal_charge(len(key) + len(value))
        owner = self._owner(key)
        if owner == self.rank:
            # local: skip the network but NOT the second (store-side) copy
            end = self.local.put(key, value, self.ctx.clock.now)
            self.ctx.clock.advance_to(end)
            return
        seq = self._take_seq()
        self._srv.send(_Req(_PUT, key, value, seq), owner, tag=0)
        rsp = self._rsp.recv(source=owner, tag=seq)
        assert rsp.seq == seq

    def get(self, key: bytes) -> Optional[bytes]:
        """Synchronous get; returns None when absent."""
        self._check_open()
        key = bytes(key)
        self._marshal_charge(len(key))
        owner = self._owner(key)
        if owner == self.rank:
            value, end = self.local.get(key, self.ctx.clock.now)
            self.ctx.clock.advance_to(end)
        else:
            seq = self._take_seq()
            self._srv.send(_Req(_GET, key, b"", seq), owner, tag=0)
            rsp = self._rsp.recv(source=owner, tag=seq)
            value = rsp.value if rsp.found else None
        if value is not None:
            # unmarshal into the client's buffer: the layer's second copy
            self._marshal_charge(len(value))
        return value

    def barrier(self) -> None:
        """Collective barrier (MDHIM piggybacks on MPI_Barrier)."""
        self._coll.barrier()

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += self.nranks
        return seq

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"MDHIM store {self.name!r} is closed")

    # ---------------------------------------------------------------- server
    def _server_main(self) -> None:
        """Range-server loop: one MiniKV op per request."""
        main_ctx = self.ctx
        sclock = VirtualClock(
            start=main_ctx.clock.now, label=f"mdhim-srv-r{self.rank}"
        )
        bind_context(RankContext(
            world_rank=main_ctx.world_rank, nranks=main_ctx.nranks,
            clock=sclock, comm=main_ctx.comm, system=main_ctx.system,
            machine=main_ctx.machine,
        ))
        cpu = main_ctx.system.cpu
        try:
            while True:
                status: dict = {}
                try:
                    req = self._srv.recv(ANY_SOURCE, ANY_TAG, status=status)
                except AbortedError:
                    return
                if req.kind == _STOP:
                    return
                source = status["source"]
                # server-side unmarshal from the message buffer (copy #2)
                sclock.advance(
                    cpu.kv_op_s + len(req.key + req.value) / cpu.memcpy_Bps
                )
                if req.kind == _PUT:
                    end = self.local.put(req.key, req.value, sclock.now)
                    sclock.advance_to(end)
                    self._rsp.send(_Rsp(req.seq, True), source, tag=req.seq)
                elif req.kind == _GET:
                    value, end = self.local.get(req.key, sclock.now)
                    sclock.advance_to(end)
                    self._rsp.send(
                        _Rsp(req.seq, value is not None, value or b""),
                        source, tag=req.seq,
                    )
                else:  # pragma: no cover - protocol error
                    raise TypeError(f"bad MDHIM request kind {req.kind}")
        finally:
            bind_context(None)

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        """Collective close: flush the local store, stop the server."""
        if self._closed:
            return
        self._coll.barrier()
        self._srv.send(_Req(_STOP, b"", b"", 0), self.rank, tag=0)
        self._server.join(30.0)
        end = self.local.close(self.ctx.clock.now)
        self.ctx.clock.advance_to(end)
        self._closed = True
        self._coll.barrier()

    def __enter__(self) -> "MDHIM":
        return self

    def __exit__(self, *exc) -> None:
        if not self._closed:
            self.close()
