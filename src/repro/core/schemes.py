"""The SecPB design spectrum: six secure persistency schemes.

Fig. 4 of the paper decomposes a secure persist into five metadata steps —
counter increment, OTP generation, BMT root update, ciphertext generation,
MAC generation — each of which a scheme performs **early** (at store-persist
time, on the critical path) or **late** (post-crash, on battery).  A scheme
splits that chain into an early prefix and a late suffix, so the six named
schemes are its six suffix splits (the registry below is built from the
chain):

========  =============================================  =====================
Scheme    Early                                          Late
========  =============================================  =====================
NoGap     counter, OTP, BMT root, ciphertext, MAC        —
M         counter, OTP, BMT root, ciphertext             MAC
CM        counter, OTP, BMT root                         ciphertext, MAC
BCM       counter, OTP                                   BMT root, ciphertext, MAC
OBCM      counter                                        OTP, BMT root, ciphertext, MAC
COBCM     —                                              everything
========  =============================================  =====================

Scheme names encode the *late* steps (C=counter, O=OTP, B=BMT, C=ciphertext,
M=MAC) — the longer the name, the lazier the scheme.

The module also encodes the paper's Sec. IV-A optimization: the **data-value
-independent** steps (counter, OTP, BMT root) need to run only once per
dirty-block residency in the SecPB, while the **data-value-dependent** steps
(ciphertext, MAC) must reflect every store.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple


class MetadataStep(enum.Enum):
    """One step of the security-metadata dependency chain (Fig. 4)."""

    COUNTER = "counter"
    OTP = "otp"
    BMT_ROOT = "bmt_root"
    CIPHERTEXT = "ciphertext"
    MAC = "mac"


ALL_STEPS: Tuple[MetadataStep, ...] = (
    MetadataStep.COUNTER,
    MetadataStep.OTP,
    MetadataStep.BMT_ROOT,
    MetadataStep.CIPHERTEXT,
    MetadataStep.MAC,
)

VALUE_INDEPENDENT_STEPS: FrozenSet[MetadataStep] = frozenset(
    {MetadataStep.COUNTER, MetadataStep.OTP, MetadataStep.BMT_ROOT}
)
"""Steps computable without the data value (once per residency, Sec. IV-A)."""

VALUE_DEPENDENT_STEPS: FrozenSet[MetadataStep] = (
    frozenset(ALL_STEPS) - VALUE_INDEPENDENT_STEPS
)
"""Steps that must reflect every change to the plaintext (the rest)."""

# Dependency edges of Fig. 4: a step may only run once its inputs exist.
STEP_DEPENDENCIES: Dict[MetadataStep, FrozenSet[MetadataStep]] = {
    MetadataStep.COUNTER: frozenset(),
    MetadataStep.OTP: frozenset({MetadataStep.COUNTER}),
    MetadataStep.BMT_ROOT: frozenset({MetadataStep.COUNTER}),
    MetadataStep.CIPHERTEXT: frozenset({MetadataStep.OTP}),
    MetadataStep.MAC: frozenset({MetadataStep.CIPHERTEXT}),
}


@dataclass(frozen=True)
class Scheme:
    """One point in the early/late design spectrum.

    Attributes:
        name: canonical lowercase name ("nogap", "m", ..., "cobcm").
        early_steps: steps performed at store-persist time.
        late_steps: steps deferred to post-crash battery time.
    """

    name: str
    early_steps: FrozenSet[MetadataStep]
    late_steps: FrozenSet[MetadataStep]

    def __post_init__(self) -> None:
        # Sets are sorted before formatting: hash randomization would
        # otherwise make the message text differ across pool workers
        # (secpb-lint SPB103).
        overlap = self.early_steps & self.late_steps
        if overlap:
            raise ValueError(
                f"{self.name}: steps both early and late: "
                f"{sorted(s.value for s in overlap)}"
            )
        missing = set(ALL_STEPS) - (self.early_steps | self.late_steps)
        if missing:
            raise ValueError(
                f"{self.name}: unassigned steps: "
                f"{sorted(s.value for s in missing)}"
            )
        # A step can only be early if all its dependencies are early too
        # (Fig. 4's event-trigger/data-dependence edges): e.g. the OTP cannot
        # be generated eagerly from a counter that does not exist yet.
        for step in self.early_steps:
            late_deps = STEP_DEPENDENCIES[step] & self.late_steps
            if late_deps:
                raise ValueError(
                    f"{self.name}: early step {step.value} depends on late "
                    f"steps {sorted(d.value for d in late_deps)}"
                )

    def is_early(self, step: MetadataStep) -> bool:
        return step in self.early_steps

    @property
    def eager_value_independent(self) -> FrozenSet[MetadataStep]:
        """Early steps that run once per SecPB residency (coalesced)."""
        return self.early_steps & VALUE_INDEPENDENT_STEPS

    @property
    def eager_value_dependent(self) -> FrozenSet[MetadataStep]:
        """Early steps that must run on every store."""
        return self.early_steps & VALUE_DEPENDENT_STEPS

    @property
    def laziness(self) -> int:
        """Number of late steps — orders the spectrum NoGap(0)..COBCM(5)."""
        return len(self.late_steps)


#: One letter per step of ``ALL_STEPS``, in order (Sec. III; the
#: ciphertext reuses 'c').  A scheme's name spells its late steps.
_CHAIN_LETTERS = "cobcm"


def _suffix_split(split: int) -> Scheme:
    """The scheme that runs the chain's first ``split`` steps early."""
    return Scheme(
        name=_CHAIN_LETTERS[split:] or "nogap",
        early_steps=frozenset(ALL_STEPS[:split]),
        late_steps=frozenset(ALL_STEPS[split:]),
    )


SCHEMES: Dict[str, Scheme] = {
    scheme.name: scheme
    for scheme in map(_suffix_split, range(len(ALL_STEPS), -1, -1))
}
"""Registry of the six schemes, keyed by name, from NoGap to COBCM."""

NOGAP = SCHEMES["nogap"]
M = SCHEMES["m"]
CM = SCHEMES["cm"]
BCM = SCHEMES["bcm"]
OBCM = SCHEMES["obcm"]
COBCM = SCHEMES["cobcm"]

SPECTRUM_ORDER: List[str] = ["cobcm", "obcm", "bcm", "cm", "m", "nogap"]
"""Schemes from laziest to most eager (Table IV's row order)."""


def get_scheme(name: str) -> Scheme:
    """Look up a scheme by (case-insensitive) name.

    Raises:
        KeyError: with the list of valid names.
    """
    key = name.lower()
    if key not in SCHEMES:
        raise KeyError(
            f"unknown scheme {name!r}; valid: {sorted(SCHEMES)}"
        )
    return SCHEMES[key]


_STEP_LETTER = {
    MetadataStep.COUNTER: "c",
    MetadataStep.OTP: "o",
    MetadataStep.BMT_ROOT: "b",
    MetadataStep.CIPHERTEXT: "x",  # 'c' is taken by the counter
    MetadataStep.MAC: "m",
}


def enumerate_valid_schemes() -> List[Scheme]:
    """Every dependency-valid early/late split of the five steps.

    A split is valid when each early step's Fig. 4 dependencies are also
    early.  There are exactly **nine** such schemes; the paper evaluates
    six of them.  The other three — counter+BMT early with a lazy OTP,
    and the two variants that compute the ciphertext (and optionally the
    MAC) eagerly while leaving the BMT root lazy — are unexplored corners
    this reproduction's design-space benchmark measures.

    Named schemes keep their canonical names; novel ones are named
    ``early_<letters>`` from their early set (c=counter, o=OTP, b=BMT
    root, x=ciphertext, m=MAC).
    """
    named = {scheme.early_steps: scheme for scheme in SCHEMES.values()}
    valid: List[Scheme] = []
    steps = list(ALL_STEPS)
    for mask in range(1 << len(steps)):
        early = frozenset(s for i, s in enumerate(steps) if mask & (1 << i))
        if any(STEP_DEPENDENCIES[s] - early for s in early):
            continue
        if early in named:
            valid.append(named[early])
        else:
            letters = "".join(
                _STEP_LETTER[s] for s in steps if s in early
            )
            valid.append(
                Scheme(
                    name=f"early_{letters}" if letters else "early_none",
                    early_steps=early,
                    late_steps=frozenset(steps) - early,
                )
            )
    # Stable order: laziest first, then by name.
    valid.sort(key=lambda s: (-s.laziness, s.name))
    return valid
