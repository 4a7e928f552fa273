"""What a workload hands the harness: decisions, their checks, and the
helpers the four workloads share (seeded generators, CLI calls, documents).

A decision is one call into the library, or one in-process
``coarsebundle.cli.main([..., "--json"])``.  Its check runs after the timer
stops; it returns DECIDED or UNDECIDED, raises CheckFailed when the output is
wrong, and may report work counts through ``Checked.counts``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

DECIDED = "decided"
UNDECIDED = "undecided"


class CheckFailed(Exception):
    """The output of a decision disagrees with its oracle.

    ``counts`` carries work counts measured before the check gave up, such
    as the number of oracle mismatches.
    """

    def __init__(self, message: str, counts: Optional[dict] = None):
        super().__init__(message)
        self.counts = counts or {}


@dataclass
class Checked:
    status: str  # DECIDED | UNDECIDED
    counts: dict = field(default_factory=dict)


@dataclass
class Decision:
    """One closed-loop request.

    ``call`` is the timed part.  ``check`` receives its return value.  A
    ``probe`` reproduces a known library defect: its failures are counted
    apart from ``failed`` (see README.md) so the fix shows as a rise in
    ``passed_frac`` instead of making every run incorrect.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Checked]
    probe: bool = False


@dataclass
class Context:
    """Per-run state shared by the generators of one workload."""

    lib: Any          # coarsebundle modules, see harness.load_library
    docs_dir: str     # JSON documents for CLI decisions are written here
    acceptance: Any   # tests/test_acceptance.py, for its standalone oracles


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    """Independent, reproducible stream per (workload, seed, round)."""
    return random.Random(f"{workload}:{seed}:{round_index}")


def write_doc(ctx: Context, name: str, doc: dict) -> str:
    path = os.path.join(ctx.docs_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(ctx: Context, argv: list) -> CliResult:
    """One in-process CLI invocation with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.lib.cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_report(res: CliResult, decided_codes=(0,), undecided_codes=(2,)
               ) -> tuple[dict, str, dict]:
    """Parse a ``--json`` report; return (report, status, counts)."""
    if res.code not in decided_codes + undecided_codes:
        raise CheckFailed(f"cli exit {res.code}: {res.stderr.strip()[:200]}")
    try:
        report = json.loads(res.stdout)
    except json.JSONDecodeError as ex:
        raise CheckFailed(f"cli report is not JSON: {ex}") from ex
    for key in ("command", "parameters", "verdict", "evidence", "timing"):
        if key not in report:
            raise CheckFailed(f"cli report lacks {key!r}")
    status = DECIDED if res.code in decided_codes else UNDECIDED
    return report, status, {"cli.report_bytes": len(res.stdout.encode())}


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)

