"""Compose interpreter optimizer hooks: first hook that produces a plan
wins (e.g. incremental cache first, then Jash parallelization)."""

from __future__ import annotations


class CompositeOptimizer:
    def __init__(self, *hooks):
        self.hooks = [h for h in hooks if h is not None]

    def compile_program(self, program, kernel=None) -> None:
        """Forward the compile-once pass to hooks that preprocess."""
        for hook in self.hooks:
            if hasattr(hook, "compile_program"):
                hook.compile_program(program, kernel)

    def try_execute(self, interp, proc, node):
        for hook in self.hooks:
            result = yield from hook.try_execute(interp, proc, node)
            if result is not None:
                return result
        return None
