"""RPL000 — suppression hygiene.

RPL000 keeps the suppression mechanism honest: every ``# reprolint:
disable`` must name registered rules and carry a ``-- reason`` so the
next reader knows *why* the invariant is waived.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.engine import ProjectIndex, SourceFile
from repro.lint.registry import Violation, known_codes, rule


@rule(
    "RPL000",
    "suppression-hygiene",
    "every reprolint disable comment names known rules and carries a "
    "'-- reason'",
)
def check_suppressions(
    source: SourceFile, project: ProjectIndex
) -> Iterator[Violation]:
    registered = known_codes()
    for suppression in source.suppressions:
        unknown = [c for c in suppression.codes if c not in registered]
        if unknown:
            yield Violation(
                code="RPL000",
                message=(
                    f"suppression names unknown rule(s) {', '.join(unknown)} "
                    "— see --list-rules for the registered codes"
                ),
                path=source.path,
                line=suppression.line,
            )
        if not suppression.reason:
            yield Violation(
                code="RPL000",
                message=(
                    "suppression without a reason — write '# reprolint: "
                    f"disable={','.join(suppression.codes) or 'RPL###'} -- "
                    "why this invariant is waived here'"
                ),
                path=source.path,
                line=suppression.line,
            )
