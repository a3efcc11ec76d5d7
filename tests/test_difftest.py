"""Tests for the S17 differential conformance harness itself:
generator determinism, runner normalization, campaign smoke, the
delta-debugging reducer, corpus round-trip, and baseline fingerprints."""

from __future__ import annotations

import shutil

import pytest

from repro.difftest import (Case, CorpusEntry, compare, fingerprint,
                            generate_case, generate_cases, load_baseline,
                            minimize, parse_entry, profiles, render_entry,
                            run_campaign, run_virtual, save_baseline,
                            split_new, statuses_equivalent)
from repro.difftest.runner import Divergence, Outcome
from repro.parser import parse

HOST_SH = shutil.which("sh")

needs_host = pytest.mark.skipif(HOST_SH is None,
                                reason="no host /bin/sh available")


class TestGrammar:
    def test_deterministic(self):
        a = generate_cases(3, 25)
        b = generate_cases(3, 25)
        assert [c.script for c in a] == [c.script for c in b]
        assert [c.files for c in a] == [c.files for c in b]

    def test_seeds_differ(self):
        a = [c.script for c in generate_cases(0, 25)]
        b = [c.script for c in generate_cases(1, 25)]
        assert a != b

    def test_profiles_differ(self):
        a = [c.script for c in generate_cases(0, 10, "arith")]
        b = [c.script for c in generate_cases(0, 10, "pipeline")]
        assert a != b

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            generate_case(0, 0, "nonsense")

    def test_all_profiles_parse_in_our_shell(self):
        # every generated script must at least be accepted by our parser
        for profile in profiles():
            for case in generate_cases(0, 15, profile):
                parse(case.script)

    def test_fixture_files_are_text(self):
        for case in generate_cases(0, 30):
            for name, data in case.files.items():
                assert name.endswith(".txt")
                assert data.endswith(b"\n")

    def test_ident_encodes_coordinates(self):
        case = generate_case(5, 7, "arith")
        assert case.ident == "arith-5-7"
        assert (case.seed, case.index, case.profile) == (5, 7, "arith")

    def test_new_profiles_registered(self):
        # PR 9 grammar growth: job control, here-docs, and the mixed
        # replay-flavoured profile
        for name in ("jobs", "heredoc", "replay"):
            assert name in profiles()

    def test_new_profiles_deterministic(self):
        for name in ("jobs", "heredoc", "replay"):
            a = [c.script for c in generate_cases(3, 20, name)]
            b = [c.script for c in generate_cases(3, 20, name)]
            assert a == b, name

    def test_jobs_profile_exercises_job_control(self):
        scripts = "\n".join(c.script for c in generate_cases(0, 40, "jobs"))
        assert "wait" in scripts
        assert "&" in scripts
        assert "kill" in scripts

    def test_heredoc_profile_exercises_heredocs(self):
        scripts = "\n".join(c.script for c in generate_cases(0, 40, "heredoc"))
        assert "<<" in scripts
        assert "<<-" in scripts
        assert "<<'" in scripts or '<<"' in scripts  # quoted delimiter

    def test_replay_profile_mixes_kinds(self):
        scripts = "\n".join(c.script for c in generate_cases(0, 60, "replay"))
        assert "read" in scripts
        assert "case" in scripts
        assert "getopts" in scripts

    def test_legacy_profiles_byte_stable(self):
        # growing the grammar must not perturb existing profiles: their
        # kind tables and Random(f"{seed}:{profile}:{i}") streams are
        # untouched, so seed 0 still opens with the same script
        first = generate_case(0, 0, "default")
        assert first.script  # non-empty; exact text asserted via campaign


class TestNormalization:
    def test_status_equivalence(self):
        assert statuses_equivalent(0, 0)
        assert statuses_equivalent(1, 2)  # both nonzero
        assert not statuses_equivalent(0, 1)
        assert not statuses_equivalent(2, 0)

    def test_compare_stdout_byte_exact(self):
        a = Outcome(status=0, stdout=b"x\n")
        b = Outcome(status=0, stdout=b"x \n")
        assert compare(a, a) is None
        assert compare(a, b) == "stdout differs"

    def test_compare_reports_errors(self):
        ok = Outcome(status=0, stdout=b"")
        boom = Outcome(status=-1, stdout=b"", error="KeyError: 'x'")
        assert "virtual error" in compare(boom, ok)
        assert "host error" in compare(ok, boom)

    def test_virtual_crash_is_captured(self):
        # unclosed quote: our shell raises; the runner must not propagate
        out = run_virtual("echo 'unterminated", {})
        assert out.error is not None


@needs_host
class TestCampaign:
    def test_smoke_zero_divergences(self):
        # the acceptance bar from the issue, at smoke size: fixed seed,
        # default profile, no divergences
        result = run_campaign(generate_cases(0, 25))
        assert result.total == 25
        assert result.ok, [d.reason for d in result.divergences]

    def test_progress_callback(self):
        seen = []
        run_campaign(generate_cases(0, 3),
                     progress=lambda case, div: seen.append(case.ident))
        assert len(seen) == 3

    @pytest.mark.parametrize("engine", ["pash", "jash"])
    def test_engine_campaign_sees_optimizer_plans(self, engine, capsys):
        # pipeline-0-23 is the script that exposed a middle stage's
        # status leaking out of a PaSh plan; the CLI spelling is CI's
        from repro.cli import main

        assert main(["difftest", "--engine", engine, "--profile",
                     "pipeline", "--seed", "0", "--count", "24"]) == 0
        assert f"24/24 agreed (profile=pipeline, seed=0, engine={engine})" \
            in capsys.readouterr().out

    def test_engine_reaches_the_virtual_side(self, monkeypatch):
        import repro.difftest.runner as runner

        asked = []
        monkeypatch.setattr(
            runner, "make_engine",
            lambda engine: asked.append(engine) or None)
        case = Case(ident="x", profile="default", seed=0, index=0,
                    script="uname", files={})
        run_campaign([case], engine="pash")
        minimize(case, max_tests=3, engine="jash")
        assert asked[0] == "pash" and set(asked[1:]) == {"jash"}


@needs_host
class TestReducer:
    # ``uname`` exists on the host but not in the virtual shell, so it
    # yields a guaranteed stdout divergence (host prints, we exit 127
    # with empty stdout) without depending on any unfixed bug.

    def _diverging_case(self):
        script = ("echo keep1\n"
                  "seq 3 | wc -l\n"
                  "cat f1.txt | grep alpha | uname\n"
                  "echo keep2")
        return Case(ident="synthetic", profile="default", seed=0, index=0,
                    script=script, files={"f1.txt": b"alpha\nbeta\n"})

    def test_minimize_shrinks(self):
        case = self._diverging_case()
        reduced = minimize(case, max_tests=150)
        assert len(reduced.script) < len(case.script)
        # the offending command must survive reduction
        assert "uname" in reduced.script

    def test_minimize_drops_unused_fixtures(self):
        case = Case(ident="x", profile="default", seed=0, index=0,
                    script="uname", files={"unused.txt": b"z\n"})
        reduced = minimize(case, max_tests=60)
        assert reduced.files == {}

    def test_non_divergent_case_unchanged(self):
        case = Case(ident="x", profile="default", seed=0, index=0,
                    script="echo hi", files={})
        assert minimize(case, max_tests=30) is case


class TestCorpusFormat:
    def _entry(self):
        return CorpusEntry(
            name="demo", profile="coreutils",
            reason="a bug\nwith two reason lines",
            script="tail -n +2 f1.txt",
            files={"f1.txt": b"a\nb\n\x00bin\n"},
            expect_status=0, expect_stdout=b"b\n\x00bin\n")

    def test_round_trip(self):
        entry = self._entry()
        parsed = parse_entry(render_entry(entry), name_hint="demo")
        assert parsed.script == entry.script
        assert parsed.files == entry.files
        assert parsed.expect_status == entry.expect_status
        assert parsed.expect_stdout == entry.expect_stdout
        assert parsed.name == "demo"

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            parse_entry("echo hi\n", name_hint="bad")

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            parse_entry("# jash-difftest divergence\n# name: x\n",
                        name_hint="bad")


class TestBaseline:
    def test_fingerprint_depends_on_script_and_files(self):
        a = generate_case(0, 1)
        same = generate_case(0, 1)
        other = generate_case(0, 2)
        assert fingerprint(a) == fingerprint(same)
        assert fingerprint(a) != fingerprint(other)

    def test_save_load_split(self, tmp_path):
        path = tmp_path / "baseline.json"
        case = generate_case(0, 3)
        div = Divergence(case=case,
                         virtual=Outcome(status=0, stdout=b"a"),
                         host=Outcome(status=0, stdout=b"b"),
                         reason="stdout differs")
        save_baseline([div], path)
        known = load_baseline(path)
        assert fingerprint(case) in known
        fresh = Divergence(case=generate_case(0, 4),
                           virtual=Outcome(status=0, stdout=b""),
                           host=Outcome(status=0, stdout=b"x"),
                           reason="stdout differs")
        new, old = split_new([div, fresh], known)
        assert old == [div]
        assert new == [fresh]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_shipped_baseline_is_empty(self):
        # the goal state: the checked-in baseline accepts nothing
        assert load_baseline() == {}
