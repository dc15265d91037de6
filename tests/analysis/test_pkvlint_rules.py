"""Fixture programs triggering (and not triggering) each pkvlint rule."""

from __future__ import annotations

import json
import textwrap

from repro.analysis.findings import findings_to_json
from repro.analysis.pkvlint import lint_file, lint_paths


def _lint(src: str, path: str = "x.py"):
    return lint_file(path, src=textwrap.dedent(src))


def _rules(findings):
    return [f.rule for f in findings]


class TestR001CommUnderLock:
    def test_send_under_db_lock_flags(self):
        fs = _lint("""
            def migrate(self):
                with self._lock:
                    self.srv_comm.send(chunk, owner)
        """)
        assert _rules(fs) == ["R001"]
        assert fs[0].line == 4
        assert "migrate" in fs[0].function

    def test_recv_under_reader_lock_flags(self):
        fs = _lint("""
            def drain(self):
                with self._io_lock:
                    self.comm.recv()
        """)
        assert _rules(fs) == ["R001"]

    def test_send_outside_lock_clean(self):
        fs = _lint("""
            def migrate(self):
                with self._lock:
                    chunk = self._swap()
                self.srv_comm.send(chunk, owner)
        """)
        assert fs == []

    def test_nested_def_resets_lock_scope(self):
        # a deferred job body does NOT run under the enclosing with
        fs = _lint("""
            def enqueue(self):
                with self._lock:
                    def job(start):
                        self.srv_comm.send(x, 1)
                        return start
                    self.worker.schedule(job)
        """)
        assert fs == []

    def test_non_comm_receiver_clean(self):
        fs = _lint("""
            def f(self):
                with self._lock:
                    self.mailer.send(x, 1)
        """)
        assert fs == []


class TestR002RenameWithoutFsync:
    def test_os_replace_without_fsync_flags(self):
        fs = _lint("""
            import os
            def publish(tmp, final):
                os.replace(tmp, final)
        """)
        assert _rules(fs) == ["R002"]

    def test_fsync_before_rename_clean(self):
        fs = _lint("""
            import os
            def publish(fd, tmp, final):
                os.fsync(fd)
                os.replace(tmp, final)
        """)
        assert fs == []

    def test_helper_fsync_name_counts(self):
        fs = _lint("""
            import os
            def publish(tmp, final, d):
                _fsync_dir(d)
                os.rename(tmp, final)
        """)
        assert fs == []

    def test_str_replace_not_flagged(self):
        fs = _lint("""
            def slug(name):
                return name.replace(".", "_")
        """)
        assert fs == []


class TestR004LockOrder:
    def test_inverted_nesting_flags(self):
        fs = _lint("""
            def f(self):
                with self._io_lock:
                    with self._lock:
                        pass
        """)
        assert _rules(fs) == ["R004"]

    def test_canonical_nesting_clean(self):
        fs = _lint("""
            def f(self):
                with self._lock:
                    with self._readers_lock:
                        pass
        """)
        assert fs == []

    def test_unregistered_attr_ignored(self):
        fs = _lint("""
            def f(self):
                with self._io_lock:
                    with self._my_private_lock:
                        pass
        """)
        assert fs == []


class TestR005ExceptionHygiene:
    def test_bare_except_flags(self):
        fs = _lint("""
            def f():
                try:
                    g()
                except:
                    pass
        """)
        assert _rules(fs) == ["R005"]

    def test_swallowed_corruption_flags(self):
        fs = _lint("""
            def f():
                try:
                    g()
                except CorruptionError:
                    pass
        """)
        assert _rules(fs) == ["R005"]

    def test_handled_corruption_clean(self):
        fs = _lint("""
            def f():
                try:
                    g()
                except CorruptionError:
                    quarantine()
                    raise
        """)
        assert fs == []

    def test_module_level_bare_except_flags(self):
        fs = _lint("""
            try:
                import fast_impl
            except:
                fast_impl = None
        """)
        assert _rules(fs) == ["R005"]


class TestInterproceduralR001:
    """What a per-function checker cannot see: a helper that does the
    blocking comm while its *caller* holds the registered lock."""

    FIXTURE = """
        class Dispatcher:
            def flush_window(self):
                with self._lock:
                    self._fan_out_batch()

            def _fan_out_batch(self):
                self.srv_comm.fanout(self._batch, self._peers)
    """

    def test_callgraph_mode_catches_helper_chain(self):
        fs = _lint(self.FIXTURE)
        assert _rules(fs) == ["R001"]
        (f,) = fs
        assert f.function == "Dispatcher.flush_window"
        assert "_lock" in f.message
        # the finding carries the full call path to the comm site
        assert any("_fan_out_batch" in hop for hop in f.call_path)
        assert any("fanout" in hop for hop in f.call_path)

    def test_two_hop_chain_flags(self):
        fs = _lint("""
            class D:
                def outer(self):
                    with self._mv_lock:
                        self.middle()
                def middle(self):
                    self.inner()
                def inner(self):
                    self.comm.recv()
        """)
        assert "R001" in _rules(fs)
        (f,) = [f for f in fs if f.rule == "R001"]
        assert len(f.call_path) == 3  # middle -> inner -> recv site

    def test_helper_comm_outside_callers_lock_clean(self):
        fs = _lint("""
            class D:
                def outer(self):
                    with self._lock:
                        x = self.prep()
                    self.helper()
                def prep(self):
                    return 1
                def helper(self):
                    self.comm.send(1, 2)
        """)
        assert fs == []

    def test_module_level_helper_resolves(self):
        fs = _lint("""
            def fan(comm, batch):
                comm.fanout(batch, ())

            class D:
                def go(self):
                    with self._lock:
                        fan(self.comm, self.batch)
        """)
        assert _rules(fs) == ["R001"]

    def test_annotated_param_receiver_resolves(self):
        fs = _lint("""
            class Database:
                def _drain(self):
                    self.ack_comm.recv()

            def serve(db: Database):
                with db._lock:
                    db._drain()
        """)
        assert _rules(fs) == ["R001"]
        assert fs[0].function == "serve"


class TestInterproceduralR004:
    def test_helper_acquiring_lower_lock_flags(self):
        fs = _lint("""
            class D:
                def outer(self):
                    with self._io_lock:
                        self.helper()
                def helper(self):
                    with self._lock:
                        pass
        """)
        assert _rules(fs) == ["R004"]
        (f,) = fs
        assert "helper" in " ".join(f.call_path)

    def test_helper_acquiring_higher_lock_clean(self):
        fs = _lint("""
            class D:
                def outer(self):
                    with self._lock:
                        self.helper()
                def helper(self):
                    with self._readers_lock:
                        pass
        """)
        assert fs == []

    def test_rlock_reentry_through_helper_clean(self):
        # db.state is an RLock: re-entering it via a helper is not an
        # inversion
        fs = _lint("""
            class D:
                def outer(self):
                    with self._lock:
                        self.helper()
                def helper(self):
                    with self._lock:
                        pass
        """)
        assert fs == []


class TestR002Reachability:
    def test_unsynced_write_in_persistence_module_flags(self):
        fs = lint_file("src/repro/nvm/store.py", src=textwrap.dedent("""
            class Store:
                def append(self, p, data):
                    with open(p, "ab") as f:
                        f.write(data)
        """))
        assert _rules(fs) == ["R002"]
        assert "fsync" in fs[0].message

    def test_write_then_fsync_clean(self):
        fs = lint_file("src/repro/nvm/store.py", src=textwrap.dedent("""
            import os
            class Store:
                def put(self, p, data):
                    with open(p, "wb") as f:
                        f.write(data)
                        os.fsync(f.fileno())
        """))
        assert fs == []

    def test_branch_missing_fsync_flags(self):
        # must reach durability on ALL paths, not just one branch
        fs = lint_file("src/repro/nvm/store.py", src=textwrap.dedent("""
            import os
            class Store:
                def put(self, p, data, sync):
                    with open(p, "wb") as f:
                        f.write(data)
                        if sync:
                            os.fsync(f.fileno())
        """))
        assert _rules(fs) == ["R002"]

    def test_helper_write_with_caller_fsync_clean(self):
        # the write escapes the helper but the call-graph root syncs it
        fs = lint_file("src/repro/nvm/store.py", src=textwrap.dedent("""
            import os
            class Store:
                def put(self, p, data):
                    fd = self._raw_write(p, data)
                    os.fsync(fd)
                def _raw_write(self, p, data):
                    with open(p, "wb") as f:
                        f.write(data)
                    return 0
        """))
        assert fs == []

    def test_non_persistence_module_not_checked(self):
        fs = lint_file("src/repro/tools/export.py", src=textwrap.dedent("""
            def dump(p, data):
                with open(p, "w") as f:
                    f.write(data)
        """))
        assert fs == []

    def test_helper_fsync_counts_for_rename(self):
        fs = _lint("""
            import os
            class Store:
                def publish(self, tmp, final):
                    self._sync_meta(tmp)
                    os.replace(tmp, final)
                def _sync_meta(self, p):
                    os.fsync(p)
        """)
        assert fs == []


class TestR007WallClockTaint:
    def test_direct_flow_flags(self):
        fs = _lint("""
            import time
            class D:
                def tick(self):
                    self.clock.advance_to(time.time())
        """)
        assert _rules(fs) == ["R007"]

    def test_flow_through_variable_flags(self):
        fs = _lint("""
            import time
            class D:
                def tick(self):
                    now = time.time()
                    self.clock.advance(now)
        """)
        assert _rules(fs) == ["R007"]

    def test_flow_through_helper_return_flags(self):
        fs = _lint("""
            import time
            class D:
                def _wall(self):
                    return time.monotonic()
                def tick(self):
                    self.clock.advance_to(self._wall())
        """)
        assert _rules(fs) == ["R007"]
        (f,) = fs
        assert any("_wall" in hop for hop in f.call_path)

    def test_send_at_sink_flags(self):
        fs = _lint("""
            from time import monotonic
            class D:
                def go(self):
                    t = monotonic()
                    self.comm.send_at(self.m, 1, t)
        """)
        assert _rules(fs) == ["R007"]

    def test_virtual_time_clean(self):
        fs = _lint("""
            class D:
                def tick(self):
                    self.clock.advance_to(self.clock.now + 0.5)
                    self.comm.send_at(self.m, 1, self.clock.now)
        """)
        assert fs == []

    def test_reassignment_clears_taint(self):
        fs = _lint("""
            import time
            class D:
                def tick(self):
                    t = time.time()
                    t = self.clock.now
                    self.clock.advance_to(t)
        """)
        assert fs == []

    def test_wallclock_for_logging_clean(self):
        fs = _lint("""
            import time
            class D:
                def log(self):
                    self.last_report = time.time()
        """)
        assert fs == []


class TestSuppressionAndOutput:
    def test_inline_suppression(self):
        fs = _lint("""
            import os
            def publish(tmp, final):
                os.replace(tmp, final)  # pkvlint: disable=R002
        """)
        assert fs == []

    def test_inline_suppression_wrong_rule_keeps_finding(self):
        fs = _lint("""
            import os
            def publish(tmp, final):
                os.replace(tmp, final)  # pkvlint: disable=R001
        """)
        assert _rules(fs) == ["R002"]

    def test_allowlist(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import os\ndef f(a, b):\n    os.replace(a, b)\n")
        allow = tmp_path / "allow"
        allow.write_text("R002 bad.py::f\n")
        assert lint_paths([str(bad)], allowlist=str(allow)) == []
        # a non-matching entry does not suppress
        allow.write_text("R002 other.py::g\n")
        assert len(lint_paths([str(bad)], allowlist=str(allow))) == 1

    def test_json_schema(self):
        fs = _lint("""
            def f():
                try:
                    g()
                except:
                    pass
        """)
        doc = json.loads(findings_to_json(fs))
        assert doc["version"] == 2
        (f,) = doc["findings"]
        assert set(f) == {"tool", "rule", "message", "path", "line",
                          "function", "call_path", "details"}
        assert f["rule"] == "R005"

    def test_syntax_error_reported_not_raised(self):
        fs = _lint("def f(:\n")
        assert _rules(fs) == ["SYNTAX"]
