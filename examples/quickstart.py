#!/usr/bin/env python3
"""Quickstart: a 4-rank PapyrusKV program.

Run with::

    python examples/quickstart.py

Each simulated MPI rank stores its own keys, a barrier makes all writes
globally visible, and every rank then reads everyone's data — the basic
SPMD pattern every PapyrusKV application follows.  Writes go through a
``db.batch()`` (one coalesced message per owner rank), reads through
``get_bulk`` (one multi-get round per owner), and the environment and
database are context managers.
"""

from repro import Options, Papyrus, spmd_run


def app(ctx):
    with Papyrus(ctx) as env:  # papyruskv_init / papyruskv_finalize
        # papyruskv_open is collective; the with-block closes (flushes
        # MemTables to SSTables) on exit
        with env.open("quickstart", Options()) as db:
            me = ctx.world_rank
            # WriteBatch is the write surface: buffered operations go
            # out as one bulk round on exit; durability="fence" means
            # remote puts are owner-acked before the block returns
            with db.batch(durability="fence") as batch:
                for i in range(100):
                    batch[f"rank{me}/key{i:03d}".encode()] = \
                        f"value-{me}-{i}".encode()

            # relaxed consistency: remote puts were staged locally; the
            # barrier migrates them and synchronizes all ranks
            db.barrier()

            wanted = [
                (f"rank{rank}/key{i:03d}".encode(),
                 f"value-{rank}-{i}".encode())
                for rank in range(ctx.nranks)
                for i in range(0, 100, 10)
            ]
            values = db.get_bulk([k for k, _ in wanted])
            assert values == [v for _, v in wanted]
            checked = len(values)

            # every rank must be done reading before anyone deletes:
            # the barrier after the delete migrates rank 0's tombstone
            # to the key's owner *before* it synchronizes, so without
            # this one a slower rank's get_bulk above could run after
            # it and see the key gone.  Relaxed consistency permits
            # that interleaving — a program that wants phases fences
            # them itself
            db.barrier()
            if me == 0:
                del db[b"rank0/key000"]
            db.barrier()
            assert b"rank0/key000" not in db  # deleted everywhere

            stats = db.stats
            tiers = dict(stats.get_tiers)
    return (me, checked, tiers, round(ctx.clock.now * 1e3, 3))


def main():
    results = spmd_run(4, app)
    print("rank  reads-verified  get-tiers                          t_virtual(ms)")
    for rank, checked, tiers, ms in results:
        print(f"{rank:4d}  {checked:14d}  {str(tiers):34s} {ms:8.3f}")
    print("\nAll ranks verified every other rank's data after the barrier.")


if __name__ == "__main__":
    main()
