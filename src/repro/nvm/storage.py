"""The machine: NVM devices, parallel file system, storage groups.

A :class:`Machine` instantiates the storage fabric of one SPMD run from
a :class:`~repro.simtime.profiles.SystemProfile`:

* local NVM architecture — one :class:`TimedResource` NVMe/SSD per
  compute node, with a per-node directory; the default storage group is
  the node;
* dedicated NVM architecture — one :class:`StripedResource` burst
  buffer shared machine-wide (one directory), the default storage group
  spans all ranks;
* a global Lustre :class:`StripedResource` standing in for the parallel
  file system used by checkpoint/restart.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from typing import Dict, Optional

from repro.nvm.posixfs import Device, PosixStore
from repro.simtime.profiles import DeviceProfile, SystemProfile
from repro.simtime.resources import StripedResource, TimedResource


def _make_device(profile: DeviceProfile, name: str, write: bool):
    """Build the timed resource for one device profile."""
    lat = profile.write_latency_s if write else profile.read_latency_s
    bw = profile.write_bandwidth_Bps if write else profile.read_bandwidth_Bps
    if profile.nstripes > 1:
        return StripedResource(name, profile.nstripes, lat, bw)
    return TimedResource(name, lat, bw)


class StorageLayout:
    """Maps ranks to storage groups.

    The paper's artifact exposes ``PAPYRUSKV_GROUP_SIZE``; group ``g`` of
    rank ``r`` is ``r // group_size``.  ``group_size=1`` disables SSTable
    sharing (the "Default" configuration of Figure 8).
    """

    def __init__(self, nranks: int, group_size: int) -> None:
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        self.nranks = nranks
        self.group_size = min(group_size, nranks)

    def group_of(self, rank: int) -> int:
        """Storage group id of ``rank``."""
        return rank // self.group_size


class Machine:
    """Storage fabric for one simulated run.

    Every rank obtains its NVM store via :meth:`nvm_store` and the
    parallel file system via :meth:`lustre_store`.  Ranks that share an
    NVM device receive :class:`PosixStore` objects rooted at the same
    directory, so storage-group reads of a peer's SSTables are real file
    reads — and, like ranks under one kernel page cache, they share the
    store's one read cache (``store.read_cache``).
    """

    def __init__(self, system: SystemProfile, nranks: int,
                 base_dir: Optional[str] = None) -> None:
        self.system = system
        self.nranks = nranks
        self._own_dir = base_dir is None
        self.base_dir = base_dir or tempfile.mkdtemp(prefix="papyruskv-")
        os.makedirs(self.base_dir, exist_ok=True)
        self._lock = threading.Lock()
        #: the stores handed out, by directory: "nvm<domain>", "lustre"
        self._stores: Dict[str, PosixStore] = {}
        self._faults = None  # Optional[repro.faults.FaultPlan]

        nnodes = system.nodes_for(nranks)
        self.nnodes = nnodes
        net_hop = system.network.latency_s

        if system.nvm_arch == "local":
            self._nvm_write = [
                _make_device(system.nvm, f"nvm-node{n}-w", write=True)
                for n in range(nnodes)
            ]
            self._nvm_read = [
                _make_device(system.nvm, f"nvm-node{n}-r", write=False)
                for n in range(nnodes)
            ]
            self._nvm_extra_latency = 0.0
            self.default_group_size = system.ranks_per_node
        elif system.nvm_arch == "dedicated":
            self._nvm_write = [_make_device(system.nvm, "burst-buffer-w", True)]
            self._nvm_read = [_make_device(system.nvm, "burst-buffer-r", False)]
            self._nvm_extra_latency = net_hop if system.nvm.remote else 0.0
            self.default_group_size = nranks
        else:
            raise ValueError(f"unknown nvm_arch {system.nvm_arch!r}")

        self._lustre_write = _make_device(system.lustre, "lustre-w", True)
        self._lustre_read = _make_device(system.lustre, "lustre-r", False)
        self._lustre_extra = net_hop if system.lustre.remote else 0.0

    # ---------------------------------------------------------------- lookup
    def nvm_domain_of_rank(self, rank: int) -> int:
        """Which NVM device/directory serves this rank."""
        if self.system.nvm_arch == "local":
            return self.system.node_of_rank(rank)
        return 0

    def _store(self, name: str, write: Device, read: Device,
               extra_latency_s: float) -> PosixStore:
        """The store rooted at ``name``, made once, with its device's one
        read cache (:mod:`repro.sstable.block_cache`) for all who open it."""
        from repro.sstable.block_cache import BlockCache  # sits above nvm

        with self._lock:
            store = self._stores.get(name)
            if store is None:
                store = self._stores[name] = PosixStore(
                    os.path.join(self.base_dir, name), write,
                    extra_latency_s=extra_latency_s, read_device=read,
                )
                store.faults = self._faults
                store.read_cache = BlockCache()
            return store

    def nvm_store(self, rank: int) -> PosixStore:
        """The NVM-backed store visible to ``rank``."""
        d = self.nvm_domain_of_rank(rank)
        return self._store(f"nvm{d}", self._nvm_write[d], self._nvm_read[d],
                           self._nvm_extra_latency)

    def lustre_store(self) -> PosixStore:
        """The global parallel file system (checkpoint target)."""
        return self._store("lustre", self._lustre_write, self._lustre_read,
                           self._lustre_extra)

    def set_faults(self, plan) -> None:
        """Attach a :class:`repro.faults.FaultPlan` (or ``None``) to every
        store this machine has created or will create."""
        with self._lock:
            self._faults = plan
            for store in self._stores.values():
                store.faults = plan

    def shares_nvm(self, rank_a: int, rank_b: int) -> bool:
        """Whether two ranks can read each other's SSTable files at all."""
        return self.nvm_domain_of_rank(rank_a) == self.nvm_domain_of_rank(rank_b)

    # --------------------------------------------------------------- lifetime
    def trim_nvm(self) -> None:
        """Simulate end-of-job NVM trim: all SSTables on NVM disappear."""
        with self._lock:
            stores = [store for name, store in self._stores.items()
                      if name != "lustre"]
        for store in stores:
            shutil.rmtree(store.root, ignore_errors=True)
            os.makedirs(store.root, exist_ok=True)
            store.read_cache.clear(readers=True)  # outlives the databases

    def close(self) -> None:
        """Remove the backing directory if this Machine created it."""
        if self._own_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)
