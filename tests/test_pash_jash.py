"""End-to-end engine tests: the PaSh AOT baseline and the Jash JIT,
including the paper's core behavioural contrasts (the spell script,
resource awareness, purity gating, no-regression)."""

import pytest

from repro.bench.workloads import spell_documents, words_text
from repro.compiler import OptimizerConfig, PashConfig, PashOptimizer
from repro.jit import JashConfig, JashOptimizer
from repro.jit.composite import CompositeOptimizer
from repro.shell import Shell
from repro.vos.machines import aws_c5_2xlarge_gp2, aws_c5_2xlarge_gp3

WORDS = words_text(512 * 1024, seed=13)
SORT_SCRIPT = "cat /data/in.txt | tr -cs A-Za-z '\\n' | sort > /data/out.txt"


def run_with(optimizer, machine_factory=aws_c5_2xlarge_gp3,
             script=SORT_SCRIPT, files=None, args=None):
    shell = Shell(machine_factory(), optimizer=optimizer)
    for path, data in (files or {"/data/in.txt": WORDS}).items():
        shell.fs.write_bytes(path, data)
    result = shell.run(script, args=args)
    return shell, result


def small_jit():
    return JashOptimizer(JashConfig(
        optimizer=OptimizerConfig(min_input_bytes=64 * 1024)
    ))


class TestPashAot:
    def test_optimizes_literal_pipeline(self):
        pash = PashOptimizer()
        shell, result = run_with(pash)
        assert result.status == 0
        assert pash.optimized_count == 1

    def test_output_identical_to_bash(self):
        _shell_b, r_bash = run_with(None)
        shell_b, _ = run_with(None)
        expected = shell_b.fs.read_bytes("/data/out.txt")
        shell_p, r_pash = run_with(PashOptimizer())
        assert shell_p.fs.read_bytes("/data/out.txt") == expected

    def test_skips_dynamic_words(self):
        """'neither PaSh nor POSH optimize this script' — the spell
        pipeline's $FILES/$DICT defeat AOT analysis."""
        docs, dictionary = spell_documents(2, 20_000)
        files = dict(docs)
        files["/usr/dict"] = dictionary
        script = (
            'DICT=/usr/dict\nFILES="$@"\n'
            "cat $FILES | tr A-Z a-z | tr -cs a-z '\\n' | sort -u "
            "| comm -13 $DICT -\n"
        )
        pash = PashOptimizer()
        shell, result = run_with(pash, script=script, files=files,
                                 args=sorted(docs))
        assert result.status == 0
        assert pash.optimized_count == 0
        assert any("not extractable" in e.reason for e in pash.events)

    def test_fixed_width(self):
        pash = PashOptimizer(PashConfig(width=4))
        run_with(pash)
        optimized = [e for e in pash.events if e.decision == "optimized"]
        assert "width=4" in optimized[0].plan_description


class TestJashJit:
    def test_optimizes_literal_pipeline(self):
        jash = small_jit()
        shell, result = run_with(jash)
        assert result.status == 0
        assert jash.optimized_count == 1

    def test_optimizes_spell_script(self):
        """Jash expands $FILES/$DICT at run time — the exact script PaSh
        must skip becomes optimizable (§3.2)."""
        docs, dictionary = spell_documents(2, 200_000)
        files = dict(docs)
        files["/usr/dict"] = dictionary
        script = (
            'DICT=/usr/dict\nFILES="$@"\n'
            "cat $FILES | tr A-Z a-z | tr -cs a-z '\\n' | sort -u "
            "| comm -13 $DICT -\n"
        )
        jash = small_jit()
        shell, result = run_with(jash, script=script, files=files,
                                 args=sorted(docs))
        assert result.status == 0
        assert jash.optimized_count == 1
        # output equals the interpreted run
        shell_b, r_bash = run_with(None, script=script, files=files,
                                   args=sorted(docs))
        assert result.stdout == r_bash.stdout
        assert result.stdout  # typos were found

    def test_purity_gate_blocks_side_effecting_expansion(self):
        """${x:=v} assigns during expansion: early expansion would be
        unsound, so Jash must interpret."""
        jash = small_jit()
        shell, result = run_with(
            jash, script="cat ${F:=/data/in.txt} | sort > /data/out.txt"
        )
        assert result.status == 0
        assert jash.optimized_count == 0
        assert any("unsafe early expansion" in e.reason for e in jash.events)

    def test_purity_gate_blocks_cmdsub(self):
        jash = small_jit()
        shell, result = run_with(
            jash, script="cat $(echo /data/in.txt) | sort > /data/out.txt"
        )
        assert jash.optimized_count == 0

    def test_small_input_interpreted(self):
        jash = JashOptimizer()  # default 1 MiB threshold
        shell, result = run_with(
            jash, files={"/data/in.txt": b"tiny\ninput\n"}
        )
        assert result.status == 0
        assert jash.optimized_count == 0
        assert any("threshold" in e.reason or "below" in e.reason
                   for e in jash.events)

    def test_pipe_input_interpreted(self):
        jash = small_jit()
        shell, result = run_with(jash, script="seq 100000 | sort -rn | head -n1")
        assert result.status == 0
        assert result.stdout == b"100000\n"

    def test_output_matches_bash_both_machines(self):
        for machine in (aws_c5_2xlarge_gp2, aws_c5_2xlarge_gp3):
            shell_b, _ = run_with(None, machine_factory=machine)
            expected = shell_b.fs.read_bytes("/data/out.txt")
            shell_j, result = run_with(small_jit(), machine_factory=machine)
            assert shell_j.fs.read_bytes("/data/out.txt") == expected

    def test_jash_faster_than_bash_on_big_input(self):
        _s1, r_bash = run_with(None)
        _s2, r_jash = run_with(small_jit())
        assert r_jash.elapsed < r_bash.elapsed * 0.8

    def test_dollar_question_set(self):
        jash = small_jit()
        shell, result = run_with(
            jash,
            script="cat /data/in.txt | sort > /data/out.txt; echo st=$?",
        )
        assert b"st=0" in result.stdout

    def test_events_record_decisions(self):
        jash = small_jit()
        run_with(jash)
        assert jash.events
        assert jash.report()

    def test_resource_awareness_gp2_avoids_materialize(self):
        big = words_text(4 << 20, seed=99)
        jash = small_jit()
        shell, result = run_with(jash, machine_factory=aws_c5_2xlarge_gp2,
                                 files={"/data/in.txt": big})
        optimized = [e for e in jash.events if e.decision == "optimized"]
        assert optimized
        assert "materialize" not in optimized[0].plan_description


class TestComposite:
    def test_chains_hooks(self):
        from repro.incremental import IncrementalOptimizer

        inc = IncrementalOptimizer()
        jash = small_jit()
        combo = CompositeOptimizer(inc, jash)
        shell = Shell(aws_c5_2xlarge_gp3(), optimizer=combo)
        shell.fs.write_bytes("/data/in.txt", WORDS)
        r1 = shell.run(SORT_SCRIPT)
        r2 = shell.run(SORT_SCRIPT)
        assert r1.status == r2.status == 0
        # the second run is served by the incremental cache
        assert inc.cache.hits >= 1
        assert r2.elapsed < r1.elapsed

    def test_empty_composite_is_noop(self):
        combo = CompositeOptimizer(None)
        shell = Shell(aws_c5_2xlarge_gp3(), optimizer=combo)
        shell.fs.write_bytes("/x", b"b\na\n")
        assert shell.run("sort /x").out == "a\nb\n"


class TestPlanStatus:
    """A plan's exit status is its last stage's, as the interpreter's
    pipeline status is (tests/corpus/divergences/plan-status-middle-stage):
    a middle ``grep`` with no match does not fail the region, a final one
    whose every parallel copy fails does."""

    @pytest.fixture(scope="class")
    def entry(self):
        from repro.difftest import load_corpus

        return next(e for e in load_corpus()
                    if e.name == "plan-status-middle-stage")

    @pytest.mark.parametrize("make", [PashOptimizer, small_jit],
                             ids=["pash", "jash"])
    def test_status_matches_interpreter(self, entry, make):
        # the corpus fixture, repeated until Jash's cost model plans too
        files = {"/" + name: data * 40_000
                 for name, data in entry.files.items()}
        _, want = run_with(None, script=entry.script, files=files)
        optimizer = make()
        _, got = run_with(optimizer, script=entry.script, files=files)
        assert optimizer.optimized_count >= 2
        assert (got.status, got.stdout) == (want.status, want.stdout)
        assert want.status == entry.expect_status
        assert want.stdout.split(b"\n")[0] == b"0"


class TestMergeFlags:
    """The plan's merge reads the stage's own ordering flags through
    ``sort``'s parser: a folded, keyed or numeric sort split k ways
    comes back in the order the interpreter gives."""

    MIXED = b"".join(b"%s %d\n" % (word, i * 7919 % 101)
                     for i in range(60_000)
                     for word in (b"Apple", b"apple", b"BANANA", b"cherry"))

    @pytest.mark.parametrize("flags", ["-f", "-fu", "-rf", "-k2 -n",
                                       "-u -k2 -n", "-f -k1,1"])
    def test_split_sort_matches_interpreter(self, flags):
        script = f"cat /data/in.txt | sort {flags} > /data/out.txt"
        files = {"/data/in.txt": self.MIXED}
        plain, _ = run_with(None, script=script, files=files)
        pash = PashOptimizer()
        planned, result = run_with(pash, script=script, files=files)
        assert (result.status, pash.optimized_count) == (0, 1)
        assert (planned.fs.read_bytes("/data/out.txt")
                == plain.fs.read_bytes("/data/out.txt"))
