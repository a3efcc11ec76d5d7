"""S16 — whole-script static effect analysis.

The compile-once pass over the shell AST that the JIT (S9) and the AOT
compiler (S7) consult instead of re-deriving safety per run:

* :mod:`repro.analysis.paths`        — the abstract-path lattice
  (literal / glob-prefix / expansion-prefix / ⊤);
* :mod:`repro.analysis.effects`      — per-node effect summaries
  (abstract file read/write sets);
* :mod:`repro.analysis.envflow`      — reaching definitions over the
  structured CFG; use-before-def detection;
* :mod:`repro.analysis.races`        — write-write / read-before-seal /
  write-under-read conflicts between concurrent statements;
* :mod:`repro.analysis.certificates` — the verdict table
  (``safe_parallel`` / ``unsafe``) keyed by AST node, and the report;
* :mod:`repro.analysis.absint`       — the S20 abstract interpreter
  (value / exit-status / trip-count domains) producing dead-branch
  facts and JS4xxx findings.

Entry point: :func:`analyze_program`; CLI: ``jash check``.
"""

from .absint import (
    ABSINT_VERSION,
    AbsintResult,
    AbsStatus,
    AbsValue,
    Finding,
    analyze_value_flow,
)
from .candidates import pipeline_stages, purity_reason
from .certificates import (
    SAFE_PARALLEL,
    UNKNOWN,
    UNSAFE,
    AnalysisResult,
    analyze_program,
)
from .effects import Conflict, EffectAnalyzer, EffectSummary, conflicts
from .envflow import VarUse, use_before_def
from .paths import AbstractPath, TOP, may_alias, word_to_path
from .races import RaceFinding, detect_races

__all__ = [
    "SAFE_PARALLEL", "UNKNOWN", "UNSAFE",
    "AnalysisResult", "analyze_program",
    "Conflict", "EffectAnalyzer", "EffectSummary", "conflicts",
    "VarUse", "use_before_def",
    "AbstractPath", "TOP", "may_alias", "word_to_path",
    "RaceFinding", "detect_races",
    "pipeline_stages", "purity_reason",
    "ABSINT_VERSION", "AbsintResult", "AbsStatus", "AbsValue",
    "Finding", "analyze_value_flow",
]
