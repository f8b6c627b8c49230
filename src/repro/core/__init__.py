"""SecPB core: the paper's contribution.

Schemes (the early/late design spectrum), the SecPB structure and its
controller, the trace-driven timing simulator, multi-SecPB coherence, and
the functional crash/recovery machinery.
"""

from .controller import SecPBController, TimingCalibration
from .multicore import MultiCoreResult, MultiCoreSecPBSimulator, sharing_traces
from .recovery_time import (
    RecoveryTimeEstimate,
    estimate_recovery_time,
    per_entry_drain_cycles,
    recovery_time_table,
)
from .coherence import CoherenceError, MigrationReport, SecPBDirectory
from .crash import (
    AppCrashPolicy,
    CrashReport,
    CrashVerdict,
    GappedPersistentSystem,
    SecurePersistentSystem,
)
from .recovery import (
    BlockVerdict,
    ObserverPolicy,
    RecoveryBlocked,
    RecoveryObserver,
    RecoveryReport,
    RecoveryVerdict,
)
from .schemes import (
    ALL_STEPS,
    BCM,
    CM,
    COBCM,
    M,
    NOGAP,
    OBCM,
    SCHEMES,
    SPECTRUM_ORDER,
    STEP_DEPENDENCIES,
    VALUE_DEPENDENT_STEPS,
    VALUE_INDEPENDENT_STEPS,
    MetadataStep,
    Scheme,
    enumerate_valid_schemes,
    get_scheme,
)
from .secpb import DrainedEntry, SecPB, SecPBEntry, fields_for_scheme
from .simulator import BBB_SCHEME_NAME, SecurePersistencySimulator, run_scheme

__all__ = [
    "ALL_STEPS",
    "AppCrashPolicy",
    "BBB_SCHEME_NAME",
    "BCM",
    "BlockVerdict",
    "CM",
    "COBCM",
    "CoherenceError",
    "CrashReport",
    "CrashVerdict",
    "DrainedEntry",
    "GappedPersistentSystem",
    "M",
    "MetadataStep",
    "MigrationReport",
    "MultiCoreResult",
    "MultiCoreSecPBSimulator",
    "NOGAP",
    "OBCM",
    "ObserverPolicy",
    "RecoveryBlocked",
    "RecoveryObserver",
    "RecoveryReport",
    "RecoveryTimeEstimate",
    "RecoveryVerdict",
    "SCHEMES",
    "SPECTRUM_ORDER",
    "STEP_DEPENDENCIES",
    "Scheme",
    "SecPB",
    "SecPBController",
    "SecPBDirectory",
    "SecPBEntry",
    "SecurePersistencySimulator",
    "SecurePersistentSystem",
    "TimingCalibration",
    "VALUE_DEPENDENT_STEPS",
    "VALUE_INDEPENDENT_STEPS",
    "fields_for_scheme",
    "get_scheme",
    "enumerate_valid_schemes",
    "estimate_recovery_time",
    "per_entry_drain_cycles",
    "recovery_time_table",
    "run_scheme",
    "sharing_traces",
]
