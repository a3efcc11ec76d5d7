"""Unit tests for the PaSh AOT compile pass: which AST nodes the
preprocessor approves, and that runtime-only nodes are never touched."""

import pytest

from repro.compiler import PashConfig, PashOptimizer
from repro.jit.composite import CompositeOptimizer
from repro.parser import parse


def compiled(source: str) -> PashOptimizer:
    pash = PashOptimizer()
    pash.compile_program(parse(source))
    return pash


class TestCompilePass:
    def test_literal_pipeline_approved(self):
        pash = compiled("cat /f | sort")
        assert len(pash._approved) == 1

    def test_dynamic_pipeline_skipped(self):
        pash = compiled("cat $FILES | sort")
        assert not pash._approved
        assert any("not extractable" in e.reason for e in pash.events)

    def test_stage_nodes_not_independently_approved(self):
        # the stages of a pipeline are not standalone AOT targets
        program = parse("cat /f | sort")
        pash = PashOptimizer()
        pash.compile_program(program)
        pipeline = program.items[0].command
        assert id(pipeline) in pash._approved
        for stage in pipeline.commands:
            assert id(stage) not in pash._approved

    def test_standalone_simple_command_approved(self):
        pash = compiled("sort /f > /out")
        assert len(pash._approved) == 1

    def test_non_parallelizable_skipped(self):
        pash = compiled("head -n1 /f")
        assert not pash._approved

    def test_nested_in_control_flow_approved(self):
        pash = compiled("if true; then cat /f | sort; fi")
        assert len(pash._approved) == 1

    def test_multiple_statements(self):
        pash = compiled("cat /a | sort\ncat $X | sort\ncat /b | sort -u")
        assert len(pash._approved) == 2

    def test_unapproved_node_fires_nothing_at_runtime(self, shell):
        pash = PashOptimizer(PashConfig(width=2))
        shell.optimizer = pash
        shell.fs.write_bytes("/f", b"b\na\n" * 200)
        result = shell.run("cat $F | sort", env={"F": "/f"})
        assert result.status == 0
        assert pash.optimized_count == 0


class TestCompositeForwarding:
    def test_compile_program_forwarded(self):
        pash = PashOptimizer()
        combo = CompositeOptimizer(None, pash)
        combo.compile_program(parse("cat /f | sort"))
        assert pash.analysed
        assert len(pash._approved) == 1
