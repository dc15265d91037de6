"""The PapyrusKV execution environment (``papyruskv_init``/``finalize``).

One :class:`Papyrus` object exists per rank.  It owns the private
communicators, the repository selection (NVM vs. parallel FS), the
registry of open databases, and the signal primitives used to order
synchronization points under sequential consistency (§3.1).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from repro.config import Options
from repro.core.db import Database
from repro.core.events import Event
from repro.errors import InvalidOptionError, NotInitializedError
from repro.mpi.launcher import RankContext

_SIG_TAG_BASE = 1000


class Papyrus:
    """Per-rank PapyrusKV environment.

    Collective constructor: every rank of the SPMD program must create
    it at the same point (it duplicates communicators).

    Parameters
    ----------
    ctx: the rank's :class:`~repro.mpi.launcher.RankContext`.
    repository: default storage for databases — ``"nvm"`` (node NVMe /
        burst buffer, the paper's ``PAPYRUSKV_REPOSITORY`` on NVM) or
        ``"lustre"`` (the parallel file system).
    """

    def __init__(self, ctx: RankContext, repository: str = "nvm") -> None:
        if repository not in ("nvm", "lustre"):
            raise InvalidOptionError(
                f"repository must be 'nvm' or 'lustre', got {repository!r}"
            )
        self.ctx = ctx
        self.repository = repository
        self.rank = ctx.world_rank
        self.nranks = ctx.nranks
        self._sig_comm = ctx.comm.dup()
        self._dbs: Dict[str, Database] = {}
        self._finalized = False

    # -------------------------------------------------------------- database
    def open(self, name: str, options: Optional[Options] = None) -> Database:
        """Collectively open or create database ``name``."""
        self._check_live()
        if not name or "/" in name:
            raise InvalidOptionError(f"bad database name {name!r}")
        if name in self._dbs:
            raise InvalidOptionError(f"database {name!r} already open")
        options = options or Options()
        if options.repository is None:
            options = options.with_(repository=self.repository)
        srv = self.ctx.comm.dup()
        rsp = self.ctx.comm.dup()
        ack = self.ctx.comm.dup()
        coll = self.ctx.comm.dup()
        machine = self.ctx.machine
        store = (
            machine.nvm_store(self.rank)
            if options.repository == "nvm" else machine.lustre_store()
        )
        db = Database(self, name, options, srv, rsp, ack, coll, store)
        meta = db.read_meta()
        if meta is not None and meta.get("nranks") != self.nranks:
            raise InvalidOptionError(
                f"database {name!r} was created with {meta.get('nranks')} "
                f"ranks; reopen with the same rank count or use restart "
                f"with redistribution"
            )
        if meta is None and self.rank == 0:
            db.write_meta()
        coll.barrier()
        db._start_handler()
        coll.barrier()
        self._dbs[name] = db
        return db

    def restart(self, path: str, name: str,
                options: Optional[Options] = None,
                force_redistribute: bool = False) -> Tuple[Database, Event]:
        """Collectively revert ``name`` from a snapshot (§4.2)."""
        self._check_live()
        from repro.core.checkpoint import restart

        return restart(self, path, name, options, force_redistribute)

    def _forget(self, name: str) -> None:
        self._dbs.pop(name, None)

    # --------------------------------------------------------------- signals
    def signal_notify(self, signum: int, ranks: Sequence[int]) -> None:
        """Send signal ``signum`` to ``ranks`` (``papyruskv_signal_notify``)."""
        self._check_live()
        for r in ranks:
            self._sig_comm.send(signum, r, tag=_SIG_TAG_BASE + signum)

    def signal_wait(self, signum: int, ranks: Sequence[int]) -> None:
        """Block until ``signum`` arrives from every rank in ``ranks``."""
        self._check_live()
        for r in ranks:
            got = self._sig_comm.recv(source=r, tag=_SIG_TAG_BASE + signum)
            assert got == signum

    # -------------------------------------------------------------- lifetime
    def finalize(self) -> None:
        """Collectively close all open databases and tear down."""
        if self._finalized:
            return
        for name in list(self._dbs):
            db = self._dbs.get(name)
            if db is not None and not db._closed:
                db.close()
        self.ctx.comm.barrier()
        self._finalized = True

    def _check_live(self) -> None:
        if self._finalized:
            raise NotInitializedError("Papyrus environment was finalized")

    def __enter__(self) -> "Papyrus":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            # a rank is failing: collective teardown would hang against
            # peers that are not failing — tear down locally and let the
            # launcher abort the run
            self._finalized = True
