"""The scheme-table invariants once linted as SPB202 and SPB204.

secpb-lint no longer imports scheme tables to check them.  SPB202 (every
step early or late, never both) is enforced by ``Scheme.__post_init__``,
and SPB204 (the Sec. IV-A coalescing classes partition the chain) holds by
construction in :mod:`repro.core.schemes`.  Each test keeps its rule's
name and feeds the same broken table the rule was tested with to the code
that now enforces the invariant.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import (
    ALL_STEPS,
    SCHEMES,
    VALUE_DEPENDENT_STEPS,
    VALUE_INDEPENDENT_STEPS,
    MetadataStep,
    Scheme,
)


def test_spb202_overlapping_sets_rejected():
    # MAC both early and late.
    with pytest.raises(ValueError, match=r"both early and late: \['mac'\]"):
        Scheme(
            "m",
            early_steps=frozenset(ALL_STEPS),
            late_steps=frozenset({MetadataStep.MAC}),
        )


def test_spb202_missing_step_rejected():
    # Three steps dropped from the chain.
    with pytest.raises(
        ValueError, match=r"unassigned steps: \['bmt_root', 'ciphertext', 'otp'\]"
    ):
        Scheme(
            "m",
            early_steps=frozenset({MetadataStep.COUNTER}),
            late_steps=frozenset({MetadataStep.MAC}),
        )


def test_spb204_value_dependent_step_misclassified():
    # Reclassifying the ciphertext as value-independent would let the
    # coalescing optimization skip re-encrypting after a new store.
    assert VALUE_DEPENDENT_STEPS == {MetadataStep.CIPHERTEXT, MetadataStep.MAC}
    assert not VALUE_DEPENDENT_STEPS & VALUE_INDEPENDENT_STEPS
    for scheme in SCHEMES.values():
        eager_dependent = scheme.early_steps & VALUE_DEPENDENT_STEPS
        assert scheme.eager_value_dependent == eager_dependent
        assert not scheme.eager_value_independent & VALUE_DEPENDENT_STEPS


def test_spb204_unclassified_step():
    # BMT root is the step the old fixture left out of both classes.
    assert MetadataStep.BMT_ROOT in VALUE_INDEPENDENT_STEPS
    assert VALUE_INDEPENDENT_STEPS | VALUE_DEPENDENT_STEPS == set(ALL_STEPS)
    for scheme in SCHEMES.values():
        assert (
            scheme.eager_value_independent | scheme.eager_value_dependent
            == scheme.early_steps
        )
