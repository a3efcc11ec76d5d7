"""Value-flow lints backed by the S20 abstract interpreter.

The S16-backed checks in :mod:`repro.lint.semantic` consume reaching
definitions and effect summaries; these consume the three-domain
value-flow facts :mod:`repro.analysis.absint` computes — constant
propagation, abstract exit statuses, and loop cardinalities:

* **JS4001** — unreachable statement (code after an unconditional
  ``exit``/``return``/``break``, or after a provably infinite loop);
* **JS4002** — a guard whose exit status is constant: the ``if``/
  ``while`` always takes the same branch;
* **JS4003** — ``while :`` (or ``until false``) whose body provably
  contains no ``break``/``exit``/``return``: the loop never ends;
* **JS4004** — reading a variable that is provably unset at that point
  while a constant ``set -u`` is in effect: the shell will abort;
* **JS4005** — a constant exit status short-circuits ``&&``/``||``:
  the right-hand side never runs;
* **JS4006** — a ``for`` loop over a provably-empty word list (e.g.
  ``$(seq 5 1)``).

Severity: JS4004 is an error (the script provably aborts); the rest are
warnings.  They register through the same ``@check`` hook as every
other lint, so ``lint()`` reports them in one deterministic pass.
"""

from __future__ import annotations

from typing import Iterator

from ..analysis.absint import analyze_value_flow
from ..parser.ast_nodes import Command
from .checks import Diagnostic, check

#: finding code -> severity; everything the interpreter proves is at
#: least a warning, and a provable `set -u` abort is an error
_SEVERITY = {
    "JS4001": "warning",
    "JS4002": "warning",
    "JS4003": "warning",
    "JS4004": "error",
    "JS4005": "warning",
    "JS4006": "warning",
}


@check
def check_value_flow(program: Command) -> Iterator[Diagnostic]:
    """Abstract interpretation (JS4001-JS4006): constant values, exit
    statuses, and loop cardinalities prove dead or aborting code."""
    result = analyze_value_flow(program)
    for finding in result.findings:
        yield Diagnostic(
            finding.code, _SEVERITY.get(finding.code, "warning"),
            finding.message, finding.context, node=finding.node,
        )
