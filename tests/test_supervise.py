"""S18 supervision tests: journal crash consistency, checkpoint
snapshots, growing sources, and the supervisor's retry/watchdog/
degradation/resume machinery."""

from __future__ import annotations

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, Shell, run_script
from repro.obs import Tracer
from repro.supervise import (
    CrashPoint,
    FileTailSource,
    Journal,
    JournalRecord,
    SimulatedCrash,
    SuperviseConfig,
    SuperviseError,
    Supervisor,
    SyntheticSource,
)
from repro.supervise.journal import _sha

from .conftest import fast_machine

SCRIPT = "cat /stream.log | tr a-z A-Z | grep -v ERROR"


def make_supervisor(tmp_path, seed=7, script=SCRIPT, **kw):
    kw.setdefault("min_input_bytes", 16)
    kw.setdefault("machine", fast_machine())
    config = SuperviseConfig(script=script, checkpoint_dir=str(tmp_path),
                             **kw)
    source = SyntheticSource(seed=seed)
    return Supervisor(config, source), source


def reference_output(script, data):
    return run_script(script, machine=fast_machine(),
                      files={"/stream.log": data}).stdout


# -- journal -----------------------------------------------------------------------


def _record(i, out, offset, mode="delta"):
    return JournalRecord(round=i, input_offset=offset, output_len=len(out),
                         output_sha=_sha(out), seg=f"seg-{i}.bin",
                         seg_len=0, seg_sha="", mode=mode)


class TestJournal:
    def test_roundtrip(self, tmp_path):
        j = Journal(str(tmp_path))
        j.append(_record(0, b"aaa", 10, mode="full"), b"aaa")
        j.append(_record(1, b"aaabbb", 20), b"bbb")
        j2 = Journal(str(tmp_path))
        repairs = j2.recover()
        assert repairs == {"torn_tail_bytes": 0, "orphan_segs": 0,
                           "records": 2, "invalid_records": 0}
        assert j2.committed_output() == b"aaabbb"
        assert j2.input_offset == 20

    def test_orphan_segment_deleted(self, tmp_path):
        j = Journal(str(tmp_path))
        j.append(_record(0, b"aaa", 10, mode="full"), b"aaa")
        with pytest.raises(SimulatedCrash):
            j.append(_record(1, b"aaabbb", 20), b"bbb",
                     crash_after_payload=True)
        j2 = Journal(str(tmp_path))
        repairs = j2.recover()
        assert repairs["orphan_segs"] == 1
        assert repairs["records"] == 1
        assert j2.committed_output() == b"aaa"
        assert j2.input_offset == 10

    def test_torn_tail_truncated(self, tmp_path):
        j = Journal(str(tmp_path))
        j.append(_record(0, b"aaa", 10, mode="full"), b"aaa")
        with pytest.raises(SimulatedCrash):
            j.append(_record(1, b"aaabbb", 20), b"bbb", torn_record=True)
        j2 = Journal(str(tmp_path))
        repairs = j2.recover()
        assert repairs["torn_tail_bytes"] > 0
        assert repairs["orphan_segs"] == 1
        assert j2.committed_output() == b"aaa"
        # the journal file itself was repaired: recovering again is clean
        j3 = Journal(str(tmp_path))
        assert j3.recover()["torn_tail_bytes"] == 0

    def test_corrupt_middle_record_stops_trust(self, tmp_path):
        j = Journal(str(tmp_path))
        j.append(_record(0, b"aaa", 10, mode="full"), b"aaa")
        j.append(_record(1, b"aaabbb", 20), b"bbb")
        raw = (tmp_path / "journal.jsonl").read_bytes()
        lines = raw.splitlines(keepends=True)
        mangled = lines[0].replace(b'"round":0', b'"round":9') + lines[1]
        (tmp_path / "journal.jsonl").write_bytes(mangled)
        j2 = Journal(str(tmp_path))
        repairs = j2.recover()
        # line 0 fails its self-check; nothing after it is trusted
        assert repairs["records"] == 0
        assert repairs["invalid_records"] == 1
        assert j2.committed_output() == b""

    def test_corrupt_segment_invalidates_record(self, tmp_path):
        j = Journal(str(tmp_path))
        j.append(_record(0, b"aaa", 10, mode="full"), b"aaa")
        seg = tmp_path / "segs" / "seg-0.bin"
        seg.write_bytes(b"zzz")
        j2 = Journal(str(tmp_path))
        assert j2.recover()["records"] == 0

    def test_committed_output_verifies_digests(self, tmp_path):
        j = Journal(str(tmp_path))
        bad = _record(0, b"aaa", 10, mode="full")
        bad.output_sha = _sha(b"not-aaa")
        j.append(bad, b"aaa")
        from repro.supervise.journal import JournalError

        j2 = Journal(str(tmp_path))
        j2.recover()
        with pytest.raises(JournalError):
            j2.committed_output()


# -- sources -----------------------------------------------------------------------


class TestSources:
    def test_synthetic_replay_is_cross_instance_deterministic(self):
        a = SyntheticSource(seed=3)
        a.grow(10_000)
        b = SyntheticSource(seed=3)
        assert b.replay(a.available()) == a.read(0, a.available())

    def test_synthetic_grows_whole_lines(self):
        src = SyntheticSource(seed=1)
        total = src.grow(100)
        assert total >= 100
        assert src.read(0, total).endswith(b"\n")

    def test_different_seeds_differ(self):
        a, b = SyntheticSource(seed=1), SyntheticSource(seed=2)
        a.grow(1000), b.grow(1000)
        assert a.read(0, 500) != b.read(0, 500)

    def test_file_tail_source(self, tmp_path):
        host = tmp_path / "grows.log"
        host.write_bytes(b"one\n")
        src = FileTailSource(str(host))
        assert src.available() == 4
        with open(host, "ab") as fh:
            fh.write(b"two\n")
        assert src.available() == 8
        assert src.read(4, 4) == b"two\n"
        assert src.replay(8) == b"one\ntwo\n"

    def test_file_tail_source_missing_file(self):
        src = FileTailSource("/nonexistent/x.log")
        assert src.available() == 0
        assert src.read(0, 10) == b""


# -- supervisor --------------------------------------------------------------------


class TestSupervisorRounds:
    def test_rounds_commit_and_match_reference(self, tmp_path):
        sup, src = make_supervisor(tmp_path)
        reports = sup.run_rounds(3, 4096)
        assert all(r.committed for r in reports)
        assert reports[0].mode == "full"
        assert all(r.mode == "delta" for r in reports[1:])
        full_input = src.read(0, src.available())
        assert sup.committed_output() == reference_output(SCRIPT, full_input)

    def test_later_rounds_are_incremental(self, tmp_path):
        sup, src = make_supervisor(tmp_path)
        reports = sup.run_rounds(3, 4096)
        assert reports[0].saved_bytes == 0
        # each delta round reuses the previously-ingested prefix
        assert reports[1].saved_bytes > 0
        assert reports[2].saved_bytes > reports[1].saved_bytes

    def test_round_span_traced(self, tmp_path):
        tracer = Tracer()
        sup, _ = make_supervisor(tmp_path, tracer=tracer)
        sup.run_rounds(2, 2048)
        names = [r.name for r in tracer.records]
        assert names.count("supervise.round") == 2


class TestCrashRecovery:
    @pytest.mark.parametrize("where", ["pre-commit", "post-payload",
                                       "torn-record", "post-commit"])
    def test_resume_is_byte_identical(self, tmp_path, where):
        sup, src = make_supervisor(tmp_path)
        with pytest.raises(SimulatedCrash):
            sup.run_rounds(4, 4096, crashes=[CrashPoint(2, where)])
        # a fresh process: new supervisor over the same checkpoint dir
        sup2, src2 = make_supervisor(tmp_path)
        sup2.resume()
        sup2.run_rounds(4 - sup2.round, 4096)
        full_input = src2.read(0, src2.available())
        assert sup2.committed_output() == reference_output(SCRIPT, full_input)

    def test_resume_recomputes_less_than_half(self, tmp_path):
        sup, src = make_supervisor(tmp_path)
        with pytest.raises(SimulatedCrash):
            sup.run_rounds(4, 8192, crashes=[CrashPoint(3, "post-payload")])
        sup2, _ = make_supervisor(tmp_path)
        sup2.resume()
        reports = sup2.run_rounds(1, 8192)
        # the resumed round extended the cached prefix instead of
        # reprocessing it: >50% of its input bytes were not recomputed
        assert reports[0].saved_bytes > reports[0].input_len * 0.5

    def test_resume_emits_trace(self, tmp_path):
        sup, _ = make_supervisor(tmp_path)
        with pytest.raises(SimulatedCrash):
            sup.run_rounds(2, 2048, crashes=[CrashPoint(1, "torn-record")])
        tracer = Tracer()
        sup2, _ = make_supervisor(tmp_path, tracer=tracer)
        sup2.resume()
        resumes = [r for r in tracer.records if r.name == "supervise.resume"]
        assert len(resumes) == 1
        assert resumes[0].args["torn_tail_bytes"] > 0

    def test_unknown_crash_point_rejected(self):
        with pytest.raises(ValueError, match="crash point"):
            CrashPoint(0, "cosmic-ray")

    def test_crash_loop_backoff(self, tmp_path):
        sup, _ = make_supervisor(tmp_path)
        sup.run_rounds(1, 2048)
        backoffs = []
        for _ in range(10):
            nxt, _ = make_supervisor(tmp_path)
            repairs = nxt.resume()
            backoffs.append(repairs["backoff_s"])
        # consecutive restarts without a new committed round escalate:
        # below the threshold of 3, then 1 s doubling, capped at 60 s
        assert backoffs == [0.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                            60.0, 60.0]

    def test_progress_resets_crash_loop_counter(self, tmp_path):
        sup, _ = make_supervisor(tmp_path)
        sup.run_rounds(1, 2048)
        for _ in range(3):
            nxt, _ = make_supervisor(tmp_path)
            nxt.resume()
        assert nxt.resume_backoff_s == 1.0  # the third one is a loop
        # a committed round is progress: the counter starts over
        # (1 = first restart since that commit, well below threshold)
        nxt.source.grow(2048)
        nxt.run_round()
        fresh, _ = make_supervisor(tmp_path)
        repairs = fresh.resume()
        assert repairs["restarts_without_progress"] == 1
        assert repairs["backoff_s"] == 0.0


class TestFaultsUnderSupervision:
    def test_retry_absorbs_a_fault_storm(self, tmp_path):
        tracer = Tracer()
        plan = FaultPlan(rate=1.0, kinds=("disk-error",), max_faults=2)
        sup, _ = make_supervisor(tmp_path, faults=plan, tracer=tracer,
                                 policy=RetryPolicy(max_retries=4))
        report = sup.run_rounds(1, 4096)[0]
        assert report.committed
        assert report.attempts > 1
        assert any(r.name == "supervise.retry" for r in tracer.records)
        full = sup.source.read(0, sup.source.available())
        assert sup.committed_output() == reference_output(SCRIPT, full)

    def test_mid_splice_fault_recovers(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec("partial-write", op=2, via="splice", fraction=0.5),))
        sup, src = make_supervisor(tmp_path, faults=plan,
                                   policy=RetryPolicy(max_retries=3))
        report = sup.run_rounds(1, 4096)[0]
        assert report.committed
        full = src.read(0, src.available())
        assert sup.committed_output() == reference_output(SCRIPT, full)

    def test_watchdog_and_ladder_exhaustion(self, tmp_path):
        tracer = Tracer()
        sup, _ = make_supervisor(
            tmp_path, script="sleep 600",
            tracer=tracer, policy=RetryPolicy(max_retries=1, timeout_s=1.0))
        sup.source.grow(64)
        with pytest.raises(SuperviseError, match="exhausted"):
            sup.run_round()
        degrades = [r for r in tracer.records
                    if r.name == "supervise.degrade"]
        # walked the whole ladder: jash -> jash-narrow -> inc -> interp
        assert [d.args["engine"] for d in degrades] == [
            "jash-narrow", "inc", "interp"]

    def test_reseal_removes_staged_sinks(self, tmp_path):
        tracer = Tracer()
        sup, _ = make_supervisor(tmp_path, tracer=tracer)
        shell = sup._ensure_shell()
        shell.fs.write_bytes("/out.staged", b"partial")
        shell.fs.write_bytes("/keep", b"data")
        assert sup._reseal() == 1
        assert not shell.fs.exists("/out.staged")
        assert shell.fs.read_bytes("/keep") == b"data"
        assert any(r.name == "supervise.reseal" for r in tracer.records)


class TestCliSupervise:
    def test_run_supervise_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = str(tmp_path / "ckpt")
        argv = ["run", "-c", SCRIPT, "--supervise", "--checkpoint", ckpt,
                "--rounds", "2", "--grow", "2048", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(["run", "-c", SCRIPT, "--supervise",
                     "--checkpoint", ckpt, "--rounds", "1",
                     "--grow", "2048", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert second.startswith(first)  # resumed, not restarted
        assert len(second) > len(first)

    def test_supervise_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["run", "-c", "echo hi", "--supervise"]) == 2


class TestMaskedFaults:
    def test_masked_upstream_fault_never_committed(self, tmp_path):
        """grep dies of an injected EIO; plain POSIX pipeline status is
        tr's 0.  The supervisor must notice the firing and re-run
        rather than commit the truncated output."""
        tracer = Tracer()
        plan = FaultPlan(specs=(FaultSpec("disk-error", op=1,
                                          proc="grep"),))
        script = "grep INFO /stream.log | tr a-z A-Z"
        sup, src = make_supervisor(tmp_path, script=script, faults=plan,
                                   tracer=tracer)
        sup.ladder_level = 3  # plain interpreter: no internal recovery
        report = sup.run_rounds(1, 4096)[0]
        assert report.committed and report.attempts == 2
        assert any(r.name == "supervise.suspect" for r in tracer.records)
        full = src.read(0, src.available())
        assert sup.committed_output() == reference_output(script, full)
        assert len(sup.committed_output()) > 0

    def test_fault_killed_region_not_cached(self, tmp_path):
        """A fault mid-region must not poison the incremental cache:
        the retry recomputes instead of replaying the dead result."""
        plan = FaultPlan(specs=(FaultSpec("disk-error", op=1,
                                          proc="dfg:grep"),))
        script = "grep INFO /stream.log | tr a-z A-Z"
        sup, src = make_supervisor(tmp_path, script=script, faults=plan)
        report = sup.run_rounds(1, 4096)[0]
        assert report.committed
        from repro.vos.faults import FAULT_STATUSES

        assert all(e.status not in FAULT_STATUSES
                   for e in sup._inc.cache.entries.values())
        full = src.read(0, src.available())
        assert sup.committed_output() == reference_output(script, full)
