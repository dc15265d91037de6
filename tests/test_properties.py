"""Cross-cutting property-based tests on substrate invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.mpi.launcher import spmd_run
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import BackgroundWorker, StripedResource, TimedResource
from repro.sstable.block_cache import BlockCache
from repro.sstable.format import Record
from repro.sstable.reader import SSTableReader
from tests.conftest import (
    assert_free_windows_sorted_disjoint,
    cursor_window,
    merge_scan,
    window_triples,
    write_table,
)


# --------------------------------------------------------------- resources
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.integers(min_value=0, max_value=10_000_000),
    st.booleans(),
)))
@example([(0.0, 2, False), (0.0, 0, True), (0.0, 16, False)])
def test_device_horizon_monotone(ops):
    """A device's horizon never regresses, every operation is served no
    earlier than its request, and no two reservations overlap — over
    mixed ``access`` (exclusive for the whole service time) and
    ``access_concurrent`` (exclusive for its bandwidth share) streams.

    A later *call* may complete earlier than a previous one: the device
    serves requests in virtual-arrival order, so a call whose request
    time falls inside a remembered idle window is served there instead
    of queueing at the horizon.  Exclusivity (disjoint reserved spans)
    is the invariant, not call-order completion.
    """
    dev = TimedResource("d", 1e-4, 1e9)
    dev.MAX_FREE_WINDOWS = 4  # small enough for the lists to overflow it
    prev_avail = 0.0
    spans = []
    for t_req, nbytes, concurrent in ops:
        duration = dev.service_time(nbytes)
        if concurrent:
            end = dev.access_concurrent(t_req, nbytes)
            reserved = duration - dev.latency_s
        else:
            end = dev.access(t_req, nbytes)
            reserved = duration
        start = end - duration
        assert start >= t_req - 1e-12
        assert start + reserved <= dev.available + 1e-12
        assert dev.available >= prev_avail
        prev_avail = dev.available
        if reserved > 0:  # a 0-byte concurrent access excludes nobody
            spans.append((start, start + reserved))
        assert_free_windows_sorted_disjoint(dev)
    spans.sort()
    for (_, e1), (s2, _) in zip(spans, spans[1:]):
        assert s2 >= e1 - 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=100_000_000),
)
def test_striping_never_slower_than_single(nstripes, nbytes):
    """An n-striped store's service time never exceeds one stripe's."""
    single = TimedResource("s", 1e-3, 1e9)
    striped = StripedResource("m", nstripes, 1e-3, 1e9)
    assert striped.service_time(nbytes) <= single.service_time(nbytes) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=5, allow_nan=False),
)))
def test_background_worker_serializes(jobs):
    """Worker completions are totally ordered and busy time adds up."""
    w = BackgroundWorker("w")
    prev = 0.0
    total = 0.0
    for t_enq, dur in jobs:
        end = w.schedule(t_enq, lambda t: t + dur)
        assert end >= prev
        assert end >= t_enq + dur
        prev = end
        total += dur
    assert w.busy_time == pytest.approx(total)


# --------------------------------------------------------------------- scan
@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.dictionaries(
        st.binary(min_size=1, max_size=6),
        st.tuples(st.binary(max_size=12), st.booleans()),
        max_size=15,
    ),
    min_size=1, max_size=5,
))
def test_merge_scan_equals_dict_overlay(generations):
    """merge_scan over newest-first tiers == applying dicts oldest-first
    and dropping tombstones."""
    model: dict = {}
    for gen in generations:  # oldest .. newest
        for k, (v, tomb) in gen.items():
            model[k] = (b"" if tomb else v, tomb)
    tiers = [
        sorted((k, b"" if tomb else v, tomb) for k, (v, tomb) in gen.items())
        for gen in reversed(generations)  # newest first
    ]
    got = list(merge_scan(tiers))
    want = sorted(
        (k, v) for k, (v, tomb) in model.items() if not tomb
    )
    assert got == want


@settings(max_examples=50, deadline=None)
@given(
    st.binary(min_size=1, max_size=4),
    st.binary(min_size=1, max_size=4),
    st.sets(st.binary(min_size=1, max_size=4), max_size=30),
)
def test_merge_scan_range_is_filter(start, end, keys):
    tiers = [sorted((k, b"v", False) for k in keys)]
    got = [k for k, _ in merge_scan(tiers, start, end)]
    want = sorted(k for k in keys if start <= k < end)
    assert got == want


_scan_key = st.integers(0, 99).map(lambda i: f"k{i:02d}".encode())


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(
        _scan_key,
        st.one_of(st.none(), st.integers(1, 3 * 64)),  # None: tombstone
        max_size=40,
    ),
    st.one_of(st.none(), _scan_key),
    st.one_of(st.none(), _scan_key),
    st.sampled_from([None, 64, 200, 1 << 20]),
    st.booleans(),
)
def test_block_cursor_equals_read_all_filtered(tmp_path_factory, table,
                                               start, end, cache_bytes,
                                               keys_only):
    """The block-at-a-time cursor == ``read_all()`` cut to the window,
    for values of 1 B to 3 blocks (64 B blocks put a boundary through
    keys, values and headers alike), any ``start``/``end``, and a cache
    that is absent, smaller than a scan's blocks, or ample — and it
    never fetches a block twice."""
    store = PosixStore(str(tmp_path_factory.mktemp("cur")),
                       TimedResource("d", 1e-5, 1e9))
    recs = [
        Record(k, b"" if n is None else bytes([65 + n % 26]) * n, n is None)
        for k, n in sorted(table.items())
    ]
    write_table(store, "t", 1, recs, block_size=64)
    cache = BlockCache(cache_bytes) if cache_bytes else None
    rd = SSTableReader(store, "t", 1, block_cache=cache)
    all_recs, _ = SSTableReader(store, "t", 1).read_all(0.0)
    ops = store.read_device.ops
    got, blocks, _ = cursor_window(rd, start, end, keys_only)
    assert got == window_triples(all_recs, start, end, keys_only)
    footer, _ = rd.footer(0.0)
    assert blocks <= len(footer.block_crcs)
    if start is None:  # no find_ge probes: device reads are the cursor's
        assert store.read_device.ops - ops <= blocks + 1  # + the index


# -------------------------------------------------------------- persistence
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.binary(min_size=1, max_size=24),
        min_size=1, max_size=20,
    ),
)
def test_redistribution_invariant_under_rank_change(n_src, n_dst, data):
    """Property: a snapshot taken with n_src ranks restarts on n_dst
    ranks with exactly the same key-value map, for any (n_src, n_dst)."""
    from repro import Papyrus
    from repro.nvm.storage import Machine
    from repro.simtime.profiles import SUMMITDEV
    from tests.conftest import small_options

    machine = Machine(SUMMITDEV, max(n_src, n_dst))
    try:
        def writer(ctx):
            with Papyrus(ctx) as env:
                db = env.open("prop-rd", small_options())
                for i, (k, v) in enumerate(sorted(data.items())):
                    if i % ctx.nranks == ctx.world_rank:
                        db.put(f"key{k:02d}".encode(), v)
                db.barrier()
                db.checkpoint("prop-snap").wait(ctx.clock)
                db.coll_comm.barrier()
                db.destroy().wait(ctx.clock)

        spmd_run(n_src, writer, machine=machine, timeout=120)
        machine.trim_nvm()

        def reader(ctx):
            with Papyrus(ctx) as env:
                db, ev = env.restart("prop-snap", "prop-rd",
                                     small_options())
                ev.wait(ctx.clock)
                db.barrier()
                got = dict(db.scan_collect())
                want = {f"key{k:02d}".encode(): v for k, v in data.items()}
                assert got == want
                db.close()

        spmd_run(n_dst, reader, machine=machine, timeout=120)
    finally:
        machine.close()


# --------------------------------------------------------------------- comm
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                max_size=30))
def test_p2p_fifo_per_source_property(tags):
    """Messages with the same (source, tag) are never reordered, for any
    interleaving of tag values."""

    def app(ctx):
        if ctx.world_rank == 0:
            for i, tag in enumerate(tags):
                ctx.comm.send((tag, i), 1, tag=tag)
        else:
            per_tag: dict = {}
            for tag in sorted(set(tags)):
                per_tag[tag] = [
                    ctx.comm.recv(source=0, tag=tag)[1]
                    for _ in range(tags.count(tag))
                ]
            for tag, seqs in per_tag.items():
                expected = [i for i, t in enumerate(tags) if t == tag]
                assert seqs == expected
            return True

    assert spmd_run(2, app, timeout=60)[1]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=3))
def test_collectives_agree_property(nranks, root):
    root = root % nranks

    def app(ctx):
        data = ctx.comm.bcast(
            ("payload", ctx.world_rank) if ctx.world_rank == root else None,
            root=root,
        )
        gathered = ctx.comm.allgather(ctx.world_rank)
        return data, gathered

    res = spmd_run(nranks, app, timeout=60)
    assert all(r[0] == ("payload", root) for r in res)
    assert all(r[1] == list(range(nranks)) for r in res)
