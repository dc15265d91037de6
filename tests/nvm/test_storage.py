"""Machine and storage-group layout tests."""

from __future__ import annotations

import os

import pytest

from repro.nvm.storage import Machine, StorageLayout
from repro.simtime.profiles import CORI, STAMPEDE, SUMMITDEV
from repro.sstable.block_cache import BlockCache
from repro.sstable.format import Record
from tests.conftest import write_table


class TestStorageLayout:
    def test_group_of(self):
        lay = StorageLayout(8, 4)
        assert [lay.group_of(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_group_size_one_isolates(self):
        lay = StorageLayout(4, 1)
        assert [lay.group_of(r) for r in range(4)] == [0, 1, 2, 3]
        assert lay.ngroups == 4

    def test_group_size_clamped_to_nranks(self):
        lay = StorageLayout(4, 100)
        assert lay.ngroups == 1
        assert lay.ranks_in_group(0) == [0, 1, 2, 3]

    def test_ranks_in_group_partial_tail(self):
        lay = StorageLayout(10, 4)
        assert lay.ranks_in_group(2) == [8, 9]

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            StorageLayout(4, 0)


class TestMachineLocalArch:
    def test_per_node_devices(self, tmp_path):
        with Machine(SUMMITDEV, 40, base_dir=str(tmp_path)) as m:
            assert m.nnodes == 2
            s0 = m.nvm_store(0)
            s19 = m.nvm_store(19)
            s20 = m.nvm_store(20)
            assert s0 is s19  # same node shares the device & directory
            assert s0 is not s20
            assert s0.root != s20.root

    def test_shares_nvm(self, tmp_path):
        with Machine(SUMMITDEV, 40, base_dir=str(tmp_path)) as m:
            assert m.shares_nvm(0, 19)
            assert not m.shares_nvm(0, 20)

    def test_default_group_is_node(self, tmp_path):
        with Machine(SUMMITDEV, 40, base_dir=str(tmp_path)) as m:
            assert m.default_group_size == 20
        with Machine(STAMPEDE, 68, base_dir=str(tmp_path / "s")) as m:
            assert m.default_group_size == 68


class TestMachineDedicatedArch:
    def test_single_shared_store(self, tmp_path):
        with Machine(CORI, 64, base_dir=str(tmp_path)) as m:
            assert m.nvm_store(0) is m.nvm_store(63)
            assert m.shares_nvm(0, 63)

    def test_default_group_is_all_ranks(self, tmp_path):
        with Machine(CORI, 64, base_dir=str(tmp_path)) as m:
            assert m.default_group_size == 64

    def test_bb_pays_network_hop(self, tmp_path):
        with Machine(CORI, 4, base_dir=str(tmp_path)) as m:
            assert m.nvm_store(0).extra_latency_s > 0


class TestMachineCommon:
    def test_lustre_store_global(self, tmp_path):
        with Machine(SUMMITDEV, 40, base_dir=str(tmp_path)) as m:
            assert m.lustre_store() is m.lustre_store()

    def test_trim_nvm_clears_files(self, tmp_path):
        with Machine(SUMMITDEV, 4, base_dir=str(tmp_path)) as m:
            s = m.nvm_store(0)
            s.write("f", b"data", 0.0)
            m.trim_nvm()
            assert not s.exists("f")
            assert os.path.isdir(s.root)  # directory itself survives

    def test_reset_timing(self, tmp_path):
        with Machine(SUMMITDEV, 4, base_dir=str(tmp_path)) as m:
            s = m.nvm_store(0)
            s.write("f", b"x" * 1000, 0.0)
            m.reset_timing()
            assert s.device.available == 0.0

    def test_close_removes_owned_tempdir(self):
        m = Machine(SUMMITDEV, 2)
        base = m.base_dir
        assert os.path.isdir(base)
        m.close()
        assert not os.path.isdir(base)

    def test_close_keeps_caller_dir(self, tmp_path):
        m = Machine(SUMMITDEV, 2, base_dir=str(tmp_path / "keep"))
        m.close()
        assert os.path.isdir(str(tmp_path / "keep"))

    def test_unknown_arch_rejected(self, tmp_path):
        import dataclasses

        bad = dataclasses.replace(SUMMITDEV, nvm_arch="weird")
        with pytest.raises(ValueError):
            Machine(bad, 2, base_dir=str(tmp_path))

    def test_layout_override(self, tmp_path):
        with Machine(SUMMITDEV, 40, base_dir=str(tmp_path)) as m:
            assert m.layout().group_size == 20
            assert m.layout(group_size=1).group_size == 1


class TestReadCache:
    """One read cache per device: ranks that share a store share it."""

    def test_one_cache_per_nvm_domain(self, tmp_path):
        with Machine(SUMMITDEV, 40, base_dir=str(tmp_path)) as m:
            node0, node1 = m.nvm_store(0), m.nvm_store(20)
            assert isinstance(node0.read_cache, BlockCache)
            assert m.nvm_store(19).read_cache is node0.read_cache
            assert node1.read_cache is not node0.read_cache
            assert m.lustre_store().read_cache not in (
                node0.read_cache, node1.read_cache)
            # budgeted by the databases that open on it, not here
            assert node0.read_cache.capacity_bytes == 0

    def test_dedicated_arch_has_one_cache_for_all(self, tmp_path):
        with Machine(CORI, 64, base_dir=str(tmp_path)) as m:
            assert m.nvm_store(0).read_cache is m.nvm_store(63).read_cache

    def test_faults_and_cache_survive_repeated_lookups(self, tmp_path):
        with Machine(SUMMITDEV, 4, base_dir=str(tmp_path)) as m:
            cache = m.nvm_store(0).read_cache
            plan = object()
            m.set_faults(plan)
            assert m.nvm_store(1).faults is plan
            assert m.lustre_store().faults is plan  # created after set_faults
            assert m.nvm_store(1).read_cache is cache

    def test_trim_nvm_empties_the_nvm_caches_in_place(self, tmp_path):
        """The cache outlives the databases, so a trim must empty it:
        blocks and readers of files that no longer exist."""
        with Machine(SUMMITDEV, 4, base_dir=str(tmp_path)) as m:
            nvm, lustre = m.nvm_store(0), m.lustre_store()
            for store in (nvm, lustre):
                write_table(store, "db_x/rank0", 1,
                            [Record(b"k", b"v" * 10)])
                store.read_cache.attach("db_x/rank0", 1 << 20)
                rd = store.read_cache.reader(store, "db_x/rank0", 1)
                assert rd.get(b"k", 0.0)[0].value == b"v" * 10
                assert len(store.read_cache) == 1
            cache, nvm_rd = nvm.read_cache, nvm.read_cache.reader(
                nvm, "db_x/rank0", 1)
            m.trim_nvm()
            assert nvm.read_cache is cache and len(cache) == 0
            assert cache.reader(nvm, "db_x/rank0", 1) is not nvm_rd
            assert len(lustre.read_cache) == 1  # the parallel FS is not NVM
