"""The scheme-invariant checker (SPB201-204) against real and broken tables."""

from __future__ import annotations

import textwrap

from repro.lint import lint_paths, select_rules
from repro.lint.scheme_invariants import FIG4_CHAIN, NAME_LETTERS

SCHEME_RULES = ["SPB201", "SPB202", "SPB203", "SPB204"]

TABLE_PRELUDE = """
import enum


class MetadataStep(enum.Enum):
    COUNTER = "counter"
    OTP = "otp"
    BMT_ROOT = "bmt_root"
    CIPHERTEXT = "ciphertext"
    MAC = "mac"


ALL_STEPS = (
    MetadataStep.COUNTER,
    MetadataStep.OTP,
    MetadataStep.BMT_ROOT,
    MetadataStep.CIPHERTEXT,
    MetadataStep.MAC,
)

VALUE_INDEPENDENT_STEPS = frozenset(
    {MetadataStep.COUNTER, MetadataStep.OTP, MetadataStep.BMT_ROOT}
)
VALUE_DEPENDENT_STEPS = frozenset(
    {MetadataStep.CIPHERTEXT, MetadataStep.MAC}
)


class TableScheme:
    def __init__(self, name, late):
        self.name = name
        self.late_steps = frozenset(late)
        self.early_steps = frozenset(ALL_STEPS) - self.late_steps
"""


def write_table(tmp_path, body, prelude=TABLE_PRELUDE):
    path = tmp_path / "schemes_table.py"
    path.write_text(textwrap.dedent(prelude) + textwrap.dedent(body))
    return path


def lint_table(path):
    return lint_paths([path], rules=select_rules(select=SCHEME_RULES))


def codes(findings):
    return sorted({f.code for f in findings})


def test_real_scheme_table_is_clean():
    import repro.core.schemes as schemes_module
    from pathlib import Path

    findings = lint_paths(
        [Path(schemes_module.__file__)], rules=select_rules(select=SCHEME_RULES)
    )
    assert findings == []


def test_valid_suffix_table_accepted(tmp_path):
    path = write_table(
        tmp_path,
        """
        SCHEMES = {
            "nogap": TableScheme("nogap", []),
            "m": TableScheme("m", [MetadataStep.MAC]),
            "cm": TableScheme("cm", [MetadataStep.CIPHERTEXT, MetadataStep.MAC]),
            "cobcm": TableScheme("cobcm", ALL_STEPS),
        }
        """,
    )
    assert lint_table(path) == []


def test_spb201_non_suffix_late_set_rejected(tmp_path):
    # OTP late while BMT root (which depends on nothing later) is early:
    # late = {otp, ciphertext, mac} is NOT a chain suffix.
    path = write_table(
        tmp_path,
        """
        SCHEMES = {
            "ocm": TableScheme(
                "ocm",
                [MetadataStep.OTP, MetadataStep.CIPHERTEXT, MetadataStep.MAC],
            ),
        }
        """,
    )
    findings = lint_table(path)
    assert "SPB201" in codes(findings)


def test_spb202_overlapping_sets_rejected(tmp_path):
    path = write_table(
        tmp_path,
        """
        bad = TableScheme("m", [MetadataStep.MAC])
        bad.early_steps = frozenset(ALL_STEPS)  # MAC now both early and late
        SCHEMES = {"m": bad}
        """,
    )
    findings = lint_table(path)
    assert "SPB202" in codes(findings)


def test_spb202_missing_step_rejected(tmp_path):
    path = write_table(
        tmp_path,
        """
        bad = TableScheme("m", [MetadataStep.MAC])
        bad.early_steps = frozenset({MetadataStep.COUNTER})  # 3 steps dropped
        SCHEMES = {"m": bad}
        """,
    )
    findings = lint_table(path)
    assert "SPB202" in codes(findings)


def test_spb203_name_not_encoding_late_steps(tmp_path):
    path = write_table(
        tmp_path,
        """
        SCHEMES = {
            "fastlazy": TableScheme(
                "fastlazy", [MetadataStep.CIPHERTEXT, MetadataStep.MAC]
            ),
        }
        """,
    )
    findings = lint_table(path)
    assert "SPB203" in codes(findings)
    assert any("'cm'" in f.message for f in findings)


def test_spb203_registry_key_mismatch(tmp_path):
    path = write_table(
        tmp_path,
        """
        SCHEMES = {
            "m": TableScheme("cm", [MetadataStep.CIPHERTEXT, MetadataStep.MAC]),
        }
        """,
    )
    findings = lint_table(path)
    assert "SPB203" in codes(findings)


def test_spb204_value_dependent_step_misclassified(tmp_path):
    # Reclassifying the ciphertext as value-independent would let the
    # coalescing optimization skip re-encrypting after a new store.
    path = write_table(
        tmp_path,
        """
        VALUE_INDEPENDENT_STEPS = frozenset(
            {
                MetadataStep.COUNTER,
                MetadataStep.OTP,
                MetadataStep.BMT_ROOT,
                MetadataStep.CIPHERTEXT,
            }
        )
        VALUE_DEPENDENT_STEPS = frozenset({MetadataStep.MAC})
        SCHEMES = {
            "m": TableScheme("m", [MetadataStep.MAC]),
        }
        """,
    )
    findings = lint_table(path)
    assert "SPB204" in codes(findings)


def test_spb204_unclassified_step(tmp_path):
    path = write_table(
        tmp_path,
        """
        VALUE_INDEPENDENT_STEPS = frozenset(
            {MetadataStep.COUNTER, MetadataStep.OTP}
        )
        VALUE_DEPENDENT_STEPS = frozenset(
            {MetadataStep.CIPHERTEXT, MetadataStep.MAC}
        )
        SCHEMES = {
            "nogap": TableScheme("nogap", []),
        }
        """,
    )
    findings = lint_table(path)
    assert "SPB204" in codes(findings)
    assert any("bmt_root" in f.message for f in findings)


def test_unloadable_table_reports_import_error(tmp_path):
    path = tmp_path / "schemes_table.py"
    path.write_text("import does_not_exist_anywhere\nSCHEMES = {}\n")
    findings = lint_paths([path], rules=select_rules(select=["SPB201"]))
    assert len(findings) == 1
    assert "failed to import" in findings[0].message


def test_non_scheme_files_skip_semantic_rules(tmp_path):
    path = tmp_path / "other.py"
    path.write_text("X = 1\n")
    assert lint_paths([path], rules=select_rules(select=SCHEME_RULES)) == []


def test_checker_constants_match_paper_chain():
    assert FIG4_CHAIN == ("counter", "otp", "bmt_root", "ciphertext", "mac")
    # Names spell late steps: c/o/b/c/m with ciphertext reusing 'c'.
    assert NAME_LETTERS["counter"] == NAME_LETTERS["ciphertext"] == "c"
