"""The secpb-lint command line: ``python -m repro.lint`` / ``repro lint``.

One run parses the given paths once and runs every selected rule over
them — the per-file rules (SPB1xx-SPB6xx) and the whole-program rules
(SPB7xx-SPB9xx) alike — then prints every finding.  ``--select`` /
``--ignore`` narrow a run to any set of codes.

Exit status is 0 when no findings survive selection and suppression, 1
when any finding is reported, and 2 on usage errors — so the command
slots directly into ``make lint``, CI, and the pre-commit hook.
``repro lint`` hands every argument but its shared ``-v``/``-q`` to
:func:`main` unparsed, so :func:`build_parser` is the only definition of
the lint flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .base import all_rules, select_rules
from .findings import findings_to_json
from .semantic import lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "secpb-lint: determinism, stats-hygiene, pool-safety, "
            "robustness and observability checks for the SecPB "
            "reproduction, plus the whole-program semantic pass (call-graph "
            "taint, artifact-IO reachability, cross-module exception flow); "
            "it reads the source and never imports or runs it"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="only run these rule codes (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODE",
        help="skip these rule codes (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    return parser


def _split_codes(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    if not values:
        return None
    codes: List[str] = []
    for value in values:
        codes.extend(code.strip() for code in value.split(",") if code.strip())
    return codes


def main(argv: Optional[Sequence[str]] = None) -> int:
    """secpb-lint entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  [{rule.severity.value}]  {rule.summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    known = {rule.code for rule in all_rules()}
    for requested in (select or []) + (ignore or []):
        if requested not in known:
            print(f"repro lint: unknown rule code {requested}", file=sys.stderr)
            return 2

    findings = lint_paths(paths, select_rules(select=select, ignore=ignore))

    if args.format == "json":
        print(findings_to_json(findings))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"{len(findings)} finding(s)")
        else:
            print("secpb-lint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
