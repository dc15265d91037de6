"""Options and artifact-style environment configuration tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro import config
from repro.config import (
    MEMTABLE,
    Options,
    RDONLY,
    RDWR,
    RELAXED,
    SEQUENTIAL,
    SSTABLE,
    WRONLY,
    consistency_name,
    options_from_env,
)
from repro.errors import (
    InvalidModeError,
    InvalidOptionError,
    InvalidProtectionError,
)


class TestConstants:
    def test_artifact_consistency_encoding(self):
        # the artifact sets PAPYRUSKV_CONSISTENCY=1 for Seq, =2 for Rel
        assert SEQUENTIAL == 1
        assert RELAXED == 2

    def test_protection_values_distinct(self):
        assert len({RDWR, WRONLY, RDONLY}) == 3

    def test_barrier_levels(self):
        assert MEMTABLE != SSTABLE

    def test_names(self):
        assert consistency_name(RELAXED) == "relaxed"
        assert consistency_name(SEQUENTIAL) == "sequential"

    def test_bad_names_raise(self):
        with pytest.raises(InvalidModeError):
            consistency_name(99)


class TestOptionsValidation:
    def test_defaults_valid(self):
        opt = Options()
        assert opt.consistency == RELAXED
        assert opt.protection == RDWR
        assert opt.binary_search is True
        assert opt.repository is None

    def test_with_replaces(self):
        opt = Options().with_(consistency=SEQUENTIAL, group_size=4)
        assert opt.consistency == SEQUENTIAL
        assert opt.group_size == 4
        assert Options().consistency == RELAXED  # original untouched

    @pytest.mark.parametrize("field,value,exc", [
        ("memtable_capacity", 0, InvalidOptionError),
        ("remote_memtable_capacity", -1, InvalidOptionError),
        ("consistency", 9, InvalidModeError),
        ("protection", 9, InvalidProtectionError),
        ("flush_queue_capacity", 0, InvalidOptionError),
        ("compaction_interval", -1, InvalidOptionError),
        ("block_cache_capacity", 0, InvalidOptionError),
        ("repository", "tape", InvalidOptionError),
        ("group_size", 0, InvalidOptionError),
        ("cache_local_capacity", 0, InvalidOptionError),
        ("cache_remote_capacity", -1, InvalidOptionError),
        ("remote_timeout", 0, InvalidOptionError),
        ("remote_timeout", -1.5, InvalidOptionError),
        ("remote_retries", -1, InvalidOptionError),
    ])
    def test_invalid_fields(self, field, value, exc):
        with pytest.raises(exc):
            Options(**{field: value})

    def test_robustness_knobs(self):
        opt = Options()
        assert opt.remote_timeout is None  # wait forever: seed behavior
        assert opt.remote_retries == 3
        assert opt.verify_on_open is False
        opt = Options(remote_timeout=0.5, remote_retries=0,
                      verify_on_open=True)
        assert opt.remote_timeout == 0.5
        assert opt.remote_retries == 0
        assert opt.verify_on_open is True

    #: the knobs that selected a pre-overhaul code path, or whose one
    #: value in use became a module constant
    REMOVED = (
        "flush_pipeline", "compaction_partitions", "group_commit_interval",
        "group_commit_bytes", "compaction_major_every",
        "compaction_rate_limit", "bloom_fp_rate", "scan_chunk",
        "heartbeat_interval", "suspect_timeout", "dead_timeout",
        "fence_pruning", "block_cache_enabled", "index_push_eager",
        "migration_queue_capacity",
    )

    def test_options_field_count(self):
        assert len(dataclasses.fields(Options)) == 21
        for name in self.REMOVED:
            with pytest.raises(TypeError):
                Options(**{name: 1})

    def test_wire_family_size(self):
        """One batch-shaped message family with one pair carrier and one
        ack: the per-batch twins of the put / GetMsg / GetReply, the
        four carriers PairsMsg replaced and the metadata pull/push pair
        are gone, their tags retired."""
        from repro.core import messages as msg

        assert len(msg.WIRE_TAGS) == 8
        for name in ("PutSyncBatchMsg", "MGetMsg", "MGetReply",
                     "MigrateMsg", "PutSyncMsg", "ReplicaPutBatchMsg",
                     "ReplicaSyncMsg", "ReplicaAckMsg"):
            assert name not in msg.WIRE_TAGS
            assert not hasattr(msg, name)
        # retired tag numbers are never reused
        assert not {1, 2, 5, 6, 7, 9, 11, 12, 13, 101, 104, 105} \
            & set(msg.WIRE_TAGS.values())

    def test_removed_env_vars_are_ignored(self):
        env = {
            "PAPYRUSKV_GROUP_COMMIT": "0",
            "PAPYRUSKV_FLUSH_PIPELINE": "0",
            "PAPYRUSKV_FENCE_PRUNING": "0",
            "PAPYRUSKV_SCAN_CHUNK": "7",
            "PAPYRUSKV_INDEX_REPLICATION": "1",
            "PAPYRUSKV_INDEX_CACHE": "0",
        }
        assert options_from_env(env) == Options()

    def test_keyword_only_construction(self):
        # positional construction is a bug magnet with ~20 fields; the
        # dataclass is kw_only so it fails loudly
        with pytest.raises(TypeError):
            Options(1 << 20)  # type: ignore[misc]

    def test_with_rejects_invalid_combination(self):
        with pytest.raises(InvalidModeError):
            Options().with_(consistency=7)


class TestEnvParsing:
    def test_empty_env_keeps_defaults(self):
        assert options_from_env({}) == Options()

    def test_consistency_var(self):
        opt = options_from_env({"PAPYRUSKV_CONSISTENCY": "1"})
        assert opt.consistency == SEQUENTIAL

    def test_group_size_var(self):
        opt = options_from_env({"PAPYRUSKV_GROUP_SIZE": "68"})
        assert opt.group_size == 68

    def test_bin_search_artifact_encoding(self):
        # artifact: 1 = sequential scan, 2 = binary search
        assert options_from_env({"PAPYRUSKV_BIN_SEARCH": "1"}).binary_search is False
        assert options_from_env({"PAPYRUSKV_BIN_SEARCH": "2"}).binary_search is True

    def test_memtable_size_var(self):
        opt = options_from_env({"PAPYRUSKV_MEMTABLE_SIZE": "1048576"})
        assert opt.memtable_capacity == 1 << 20

    def test_repository_lustre_detection(self):
        opt = options_from_env(
            {"PAPYRUSKV_REPOSITORY": "/lustre/atlas/scratch/u/x"}
        )
        assert opt.repository == "lustre"
        opt = options_from_env({"PAPYRUSKV_REPOSITORY": "/xfs/scratch/u"})
        assert opt.repository == "nvm"

    def test_base_options_extended(self):
        base = Options(cache_local_enabled=False)
        opt = options_from_env({"PAPYRUSKV_CONSISTENCY": "1"}, base=base)
        assert opt.cache_local_enabled is False
        assert opt.consistency == SEQUENTIAL

    def test_invalid_env_value_raises(self):
        with pytest.raises(InvalidModeError):
            options_from_env({"PAPYRUSKV_CONSISTENCY": "9"})
