"""secpb-lint rule behavior: one trigger fixture per rule code,
suppression handling, selection, and the JSON report schema."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.lint import lint_paths, lint_source, select_rules
from repro.lint.base import module_name_for_path, parse_suppressions
from repro.lint.findings import findings_to_json

SIM_MODULE = "repro.sim.fixture"
ANALYSIS_MODULE = "repro.analysis.fixture"


def lint_sim(source: str, **kwargs):
    """Lint a snippet as if it lived inside the simulated machine."""
    return lint_source(textwrap.dedent(source), "fixture.py", module=SIM_MODULE, **kwargs)


def codes(findings):
    return [f.code for f in findings]


# --- SPB101: unseeded RNG ------------------------------------------------


def test_spb101_global_random_module():
    findings = lint_sim(
        """
        import random

        def jitter():
            return random.random()
        """
    )
    assert codes(findings) == ["SPB101"]


def test_spb101_numpy_legacy_global():
    findings = lint_sim(
        """
        import numpy as np

        def noise(n):
            return np.random.rand(n)
        """
    )
    assert codes(findings) == ["SPB101"]


def test_spb101_unseeded_default_rng():
    findings = lint_sim(
        """
        import numpy as np

        def gen():
            return np.random.default_rng()
        """
    )
    assert codes(findings) == ["SPB101"]


def test_spb101_seeded_default_rng_is_clean():
    findings = lint_sim(
        """
        import numpy as np

        def gen(seed):
            return np.random.default_rng(seed)
        """
    )
    assert findings == []


def test_spb101_from_import_alias():
    findings = lint_sim(
        """
        from random import randint

        def pick():
            return randint(0, 7)
        """
    )
    assert codes(findings) == ["SPB101"]


@pytest.mark.parametrize(
    "module, call",
    [("uuid", "uuid.uuid4()"), ("os", "os.urandom(8)"), ("secrets", "secrets.token_hex()")],
)
def test_spb101_os_entropy(module, call):
    findings = lint_sim(f"import {module}\n\ndef token():\n    return {call}\n")
    assert codes(findings) == ["SPB101"]


# --- SPB102: wall-clock reads --------------------------------------------


def test_spb102_time_time():
    findings = lint_sim(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    assert codes(findings) == ["SPB102"]


def test_spb102_datetime_now():
    findings = lint_sim(
        """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """
    )
    assert codes(findings) == ["SPB102"]


def test_spb102_out_of_scope_module_is_clean():
    # perf_counter in analysis code (the runner's progress logging) is fine.
    findings = lint_source(
        textwrap.dedent(
            """
            import time

            def elapsed():
                return time.perf_counter()
            """
        ),
        "runner.py",
        module=ANALYSIS_MODULE,
    )
    assert findings == []


@pytest.mark.parametrize(
    "module, source, code",
    [
        (SIM_MODULE, "import time\n\nSTART = time.time()\n", "SPB102"),
        (SIM_MODULE, "import time\n\nclass Clock:\n    start = time.time()\n", "SPB102"),
        (ANALYSIS_MODULE, "class Writer:\n    open(PATH, \"w\")\n", "SPB502"),
    ],
    ids=["module-level", "class-body", "class-body-write"],
)
def test_per_file_rules_see_code_outside_functions(module, source, code):
    findings = lint_source(source, "fixture.py", module=module)
    assert codes(findings) == [code]


# --- SPB103: set iteration order -----------------------------------------


def test_spb103_for_loop_over_set_literal():
    findings = lint_sim(
        """
        def walk(sink):
            for x in {"a", "b"}:
                sink(x)
        """
    )
    assert codes(findings) == ["SPB103"]


def test_spb103_list_of_set_local():
    findings = lint_sim(
        """
        def order(items):
            pending = set(items)
            return list(pending)
        """
    )
    assert codes(findings) == ["SPB103"]


def test_spb103_fstring_of_set_expression():
    findings = lint_sim(
        """
        def describe(a, b):
            missing = set(a) - set(b)
            return f"missing: {missing}"
        """
    )
    assert codes(findings) == ["SPB103"]


def test_spb103_sorted_set_is_clean():
    findings = lint_sim(
        """
        def order(items):
            pending = set(items)
            return sorted(pending), len(pending)
        """
    )
    assert findings == []


def test_spb103_join_over_set():
    findings = lint_sim(
        """
        def label(parts):
            tags = {p.strip() for p in parts}
            return ",".join(tags)
        """
    )
    assert codes(findings) == ["SPB103"]


# --- SPB104: environment reads -------------------------------------------


def test_spb104_os_environ():
    findings = lint_sim(
        """
        import os

        def workers():
            return os.environ.get("JOBS", "1")
        """
    )
    assert codes(findings) == ["SPB104"]


def test_spb104_os_getenv():
    findings = lint_sim(
        """
        import os

        def workers():
            return os.getenv("JOBS")
        """
    )
    assert codes(findings) == ["SPB104"]


# --- SPB105: per-access counter-name construction -------------------------


def test_spb105_fstring_name_in_access_method():
    findings = lint_sim(
        """
        class Cache:
            def access(self, addr):
                self.stats.add(f"cache.{self.name}.hits")
        """
    )
    assert codes(findings) == ["SPB105"]


def test_spb105_concatenated_name():
    findings = lint_sim(
        """
        def record(stats, kind):
            stats.add("mdc." + kind + ".misses")
        """
    )
    assert codes(findings) == ["SPB105"]


def test_spb105_percent_format_name():
    findings = lint_sim(
        """
        def record(stats, kind):
            stats.add("mdc.%s.hits" % kind)
        """
    )
    assert codes(findings) == ["SPB105"]


def test_spb105_str_format_name():
    findings = lint_sim(
        """
        def record(stats, level):
            stats.set("bmt.level.{}".format(level), 1)
        """
    )
    assert codes(findings) == ["SPB105"]


def test_spb105_counter_binding_in_init_is_clean():
    # The sanctioned pattern: build the name once at construction time
    # and bind a closure for the per-access path.
    findings = lint_sim(
        """
        class Cache:
            def __init__(self, config):
                prefix = f"cache.{config.name}"
                self._count_hit = self.stats.counter(f"{prefix}.hits")

            def access(self, addr):
                self._count_hit()
        """
    )
    assert findings == []


def test_spb105_literal_name_in_access_method_is_clean():
    findings = lint_sim(
        """
        class NVM:
            def read(self, addr):
                self.stats.add("nvm.reads")
        """
    )
    assert findings == []


def test_spb105_dynamic_counter_call_outside_init():
    findings = lint_sim(
        """
        class Cache:
            def rebuild(self):
                self._count_hit = self.stats.counter(f"cache.{self.name}.hits")
        """
    )
    assert codes(findings) == ["SPB105"]


def test_spb105_out_of_scope_module_is_clean():
    findings = lint_source(
        textwrap.dedent(
            """
            def plot(stats, scheme):
                stats.add(f"plots.{scheme}")
            """
        ),
        "plots.py",
        module=ANALYSIS_MODULE,
    )
    assert findings == []


# --- SPB301-303: stats hygiene -------------------------------------------


def test_spb301_private_counter_access():
    findings = lint_sim(
        """
        def poke(stats):
            stats._counters["secpb.writes"] = 0
        """
    )
    assert "SPB301" in codes(findings)


def test_spb301_allowed_inside_collector_definition():
    findings = lint_sim(
        """
        class StatsCollector:
            def add(self, name):
                self._counters[name] = 1
        """
    )
    assert findings == []


def test_spb302_result_stats_assignment():
    findings = lint_sim(
        """
        def fixup(result):
            result.stats["ppti"] = 0.0
        """
    )
    assert "SPB302" in codes(findings)


def test_spb302_result_stats_update_call():
    findings = lint_sim(
        """
        def fixup(result, extra):
            result.stats.update(extra)
        """
    )
    assert "SPB302" in codes(findings)


def test_spb303_snapshot_without_subtract():
    findings = lint_sim(
        """
        def run(stats, trace):
            boundary = stats.snapshot()
            return boundary
        """
    )
    assert codes(findings) == ["SPB303"]


def test_spb303_snapshot_with_subtract_is_clean():
    findings = lint_sim(
        """
        def run(stats, trace):
            boundary = stats.snapshot()
            stats.subtract(boundary)
        """
    )
    assert findings == []


def test_spb303_non_stats_snapshot_is_clean():
    # Snapshots of other structures (e.g. the MAC store) are unrelated.
    findings = lint_sim(
        """
        def recover_all(self):
            return list(self.macs.snapshot())
        """
    )
    assert findings == []


# --- SPB401-403: pool safety ---------------------------------------------


def test_spb401_lambda_in_job():
    findings = lint_sim(
        """
        def build():
            return SimSpec(calibration=lambda: None)
        """
    )
    assert codes(findings) == ["SPB401"]


def test_spb402_nested_function_reference():
    findings = lint_sim(
        """
        def sweep(pool, jobs):
            def levels(page):
                return 2
            return pool.submit(levels, jobs)
        """
    )
    assert codes(findings) == ["SPB402"]


def test_spb402_nested_function_called_is_clean():
    findings = lint_sim(
        """
        def sweep():
            def make_spec(cut):
                return SimSpec(bmf_cut=cut)
            return [make_spec(2), make_spec(5)]
        """
    )
    assert findings == []


def test_spb403_open_handle_in_job():
    findings = lint_sim(
        """
        def build(path):
            return SimJob(key=("x",), benchmark="a", num_ops=1, seed=1,
                          warmup_frac=0.0, spec=open(path))
        """
    )
    assert codes(findings) == ["SPB403"]


def test_spb403_generator_in_job():
    findings = lint_sim(
        """
        def build(items):
            return run_jobs((i for i in items), workers=2)
        """
    )
    assert codes(findings) == ["SPB403"]


# --- SPB404: resource lifecycle ownership ---------------------------------


def lint_as(module: str, source: str, **kwargs):
    """Lint a snippet as if it lived in ``module``."""
    return lint_source(
        textwrap.dedent(source), "fixture.py", module=module, **kwargs
    )


def test_spb404_shared_memory_create_outside_plane():
    findings = lint_as(
        "repro.analysis.fixture",
        """
        def stage(trace):
            return SharedMemory(create=True, size=trace.nbytes)
        """,
    )
    assert codes(findings) == ["SPB404"]


def test_spb404_shared_memory_attach_is_clean():
    # Attaching to an existing segment owns nothing; only creation is
    # restricted to the runtime plane.
    findings = lint_as(
        "repro.analysis.fixture",
        """
        def adopt(name):
            return SharedMemory(name=name)
        """,
    )
    assert findings == []


def test_spb404_create_in_plane_with_paired_cleanup_is_clean():
    findings = lint_as(
        "repro.runtime.shm",
        """
        def publish(size):
            segment = SharedMemory(create=True, size=size)
            try:
                fill(segment)
            except BaseException:
                segment.close()
                segment.unlink()
                raise
            return segment
        """,
    )
    assert findings == []


def test_spb404_create_in_plane_without_unlink_fires():
    # close() alone still leaves the named /dev/shm file behind.
    findings = lint_as(
        "repro.runtime.shm",
        """
        def publish(size):
            segment = SharedMemory(create=True, size=size)
            try:
                fill(segment)
            finally:
                segment.close()
            return segment
        """,
    )
    assert codes(findings) == ["SPB404"]


def test_spb404_raw_pool_outside_runtime():
    findings = lint_as(
        "repro.analysis.fixture",
        """
        def sweep(workers):
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return pool
        """,
    )
    assert codes(findings) == ["SPB404"]


def test_spb404_multiprocessing_pool_attribute_fires():
    findings = lint_as(
        "repro.fault.fixture",
        """
        import multiprocessing

        def sweep(workers):
            return multiprocessing.Pool(workers)
        """,
    )
    assert codes(findings) == ["SPB404"]


def test_spb404_pool_construction_inside_runtime_is_clean():
    findings = lint_as(
        "repro.runtime.pool",
        """
        def start(workers):
            return ProcessPoolExecutor(max_workers=workers)
        """,
    )
    assert findings == []


# --- SPB501: crash/recovery/fault robustness -------------------------------

FAULT_MODULE = "repro.fault.campaign"


def lint_fault(source: str, **kwargs):
    """Lint a snippet as if it lived inside the fault subsystem."""
    return lint_source(
        textwrap.dedent(source), "fixture.py", module=FAULT_MODULE, **kwargs
    )


def test_spb501_swallowed_exception():
    findings = lint_fault(
        """
        def grade(case):
            try:
                return execute(case)
            except ValueError:
                pass
        """
    )
    assert codes(findings) == ["SPB501"]


def test_spb501_bare_except_pass():
    findings = lint_fault(
        """
        def grade(case):
            try:
                return execute(case)
            except Exception:
                ...
        """
    )
    assert codes(findings) == ["SPB501"]


def test_spb501_handler_that_records_is_clean():
    findings = lint_fault(
        """
        def grade(case, failures):
            try:
                return execute(case)
            except ValueError as exc:
                failures.append(exc)
        """
    )
    assert findings == []


def test_spb501_unseeded_global_random():
    findings = lint_fault(
        """
        import random

        def pick(blocks):
            return random.choice(blocks)
        """
    )
    assert codes(findings) == ["SPB501"]


def test_spb501_unseeded_random_instance():
    findings = lint_fault(
        """
        from random import Random

        def pick():
            return Random()
        """
    )
    assert codes(findings) == ["SPB501"]


def test_spb501_seeded_random_is_clean():
    findings = lint_fault(
        """
        from random import Random

        def pick(case):
            return Random(case.seed)
        """
    )
    assert findings == []


def test_spb501_scoped_to_crash_recovery_fault():
    source = """
    def grade(case):
        try:
            return execute(case)
        except ValueError:
            pass
    """
    assert lint_fault(source)  # in scope
    clean = lint_source(
        textwrap.dedent(source), "fixture.py", module="repro.analysis.runner"
    )
    assert clean == []  # runner code may use its own error discipline
    crash = lint_source(
        textwrap.dedent(source), "fixture.py", module="repro.core.crash"
    )
    assert codes(crash) == ["SPB501"]


# --- SPB504: OS-fault hygiene in durability/runtime ------------------------

DURABILITY_MODULE = "repro.durability.artifacts"


def lint_durability(source: str, module: str = DURABILITY_MODULE, **kwargs):
    """Lint a snippet as if it lived inside the durability layer."""
    return lint_source(
        textwrap.dedent(source), "fixture.py", module=module, **kwargs
    )


def test_spb504_silent_oserror_pass():
    findings = lint_durability(
        """
        def cleanup(path):
            try:
                path.unlink()
            except OSError:
                pass
        """
    )
    assert codes(findings) == ["SPB504"]


def test_spb504_silent_oserror_fallback_return():
    findings = lint_durability(
        """
        def read(path):
            try:
                return path.read_bytes()
            except OSError:
                return None
        """
    )
    assert codes(findings) == ["SPB504"]


def test_spb504_tuple_catch_including_oserror():
    findings = lint_durability(
        """
        def install(sig, handler):
            try:
                register(sig, handler)
            except (ValueError, OSError):
                pass
        """
    )
    assert codes(findings) == ["SPB504"]


def test_spb504_logged_handler_is_clean():
    findings = lint_durability(
        """
        import logging

        logger = logging.getLogger(__name__)

        def cleanup(path):
            try:
                path.unlink()
            except OSError as exc:
                logger.debug("cannot remove %s: %s", path, exc)
        """
    )
    assert findings == []


def test_spb504_reraising_handler_is_clean():
    findings = lint_durability(
        """
        def checkpoint(write, results):
            try:
                write(results)
            except OSError as exc:
                raise RunInterrupted(str(exc), results) from exc
        """
    )
    assert findings == []


def test_spb504_non_os_errors_not_this_rules_business():
    findings = lint_durability(
        """
        def parse(text):
            try:
                return int(text)
            except ValueError:
                return 0
        """
    )
    assert findings == []


def test_spb504_swallow_check_scoped_to_durability_runtime():
    source = """
    def cleanup(path):
        try:
            path.unlink()
        except OSError:
            pass
    """
    assert codes(lint_durability(source, module="repro.runtime.shm")) == [
        "SPB504"
    ]
    # Analysis code may treat a missing file as an ordinary outcome.
    assert lint_durability(source, module="repro.analysis.compare") == []


def test_spb504_raw_os_kill_outside_sanctioned_homes():
    source = """
    import os

    def stop(pid):
        os.kill(pid, 9)
    """
    findings = lint_durability(source, module="repro.analysis.runner")
    assert codes(findings) == ["SPB504"]
    assert "repro.envfault" in findings[0].message


def test_spb504_signal_signal_outside_sanctioned_homes():
    findings = lint_durability(
        """
        import signal

        def install(handler):
            signal.signal(signal.SIGTERM, handler)
        """,
        module="repro.cli",
    )
    assert codes(findings) == ["SPB504"]


def test_spb504_sanctioned_homes_may_use_raw_signals():
    source = """
    import os
    import signal

    def arm(pid, handler):
        signal.signal(signal.SIGTERM, handler)
        os.kill(pid, signal.SIGKILL)
    """
    for module in ("repro.durability.interrupt", "repro.envfault.procfault"):
        assert lint_durability(source, module=module) == []


def test_spb504_does_not_police_non_repro_trees():
    findings = lint_durability(
        """
        import os

        def stop(pid):
            os.kill(pid, 9)
        """,
        module="scripts.helper",
    )
    assert findings == []


# --- SPB504 and SPB901 share one "does the handler surface it?" predicate --

HANDLER_BODIES = [
    pytest.param("raise", True, id="reraise"),
    pytest.param("raise RuntimeError('lost') from None", True, id="translate"),
    pytest.param("logger.warning('lost')", True, id="logger"),
    pytest.param("logging.getLogger(__name__).error('lost')", True, id="getlogger"),
    pytest.param("warnings.warn('lost')", True, id="warn"),
    pytest.param("print('lost')", True, id="print"),
    pytest.param("return repr(exc)", True, id="bound-exception"),
    pytest.param("pass", False, id="pass"),
    pytest.param("return None", False, id="fallback"),
]


@pytest.mark.parametrize("body, surfaces", HANDLER_BODIES)
def test_spb504_and_spb901_agree_on_surfacing(tmp_path, body, surfaces):
    # One handler both rules judge: it catches an OSError (SPB504's
    # business in repro.durability) and a fault exception raised by
    # another module (SPB901's).
    tree = {
        "repro/__init__.py": "",
        "repro/fault/__init__.py": "",
        "repro/fault/inject.py": """
            class CrashVerdictError(Exception):
                pass


            def verify_recovery(state):
                if not state:
                    raise CrashVerdictError("recovery left no state")
                return state
            """,
        "repro/durability/__init__.py": "",
        "repro/durability/guard.py": f"""
            import logging
            import warnings

            from ..fault.inject import CrashVerdictError, verify_recovery

            logger = logging.getLogger(__name__)


            def guarded(state):
                try:
                    verify_recovery(state)
                except (OSError, CrashVerdictError) as exc:
                    {body}
                return state
            """,
    }
    for rel, source in tree.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    findings = lint_paths(
        [tmp_path / "repro"], rules=select_rules(select=["SPB504", "SPB901"])
    )
    assert sorted(codes(findings)) == ([] if surfaces else ["SPB504", "SPB901"])


# --- suppressions ---------------------------------------------------------


def test_line_suppression_silences_only_that_line():
    findings = lint_sim(
        """
        import time

        def stamp():
            a = time.time()  # secpb-lint: disable=SPB102
            b = time.time()
            return a, b
        """
    )
    assert codes(findings) == ["SPB102"]
    assert findings[0].line == 6


def test_line_suppression_multiple_codes():
    findings = lint_sim(
        """
        import time, os

        def stamp():
            return time.time(), os.getenv("X")  # secpb-lint: disable=SPB102,SPB104
        """
    )
    assert findings == []


def test_file_suppression():
    findings = lint_sim(
        """
        # secpb-lint: disable-file=SPB102
        import time

        def a():
            return time.time()

        def b():
            return time.time()
        """
    )
    assert findings == []


def test_suppression_of_other_code_does_not_silence():
    findings = lint_sim(
        """
        import time

        def stamp():
            return time.time()  # secpb-lint: disable=SPB101
        """
    )
    assert codes(findings) == ["SPB102"]


def test_parse_suppressions_shapes():
    per_line, per_file = parse_suppressions(
        "x = 1  # secpb-lint: disable=SPB101\n"
        "# secpb-lint: disable-file=SPB303\n"
    )
    assert per_line == {1: {"SPB101"}}
    assert per_file == {"SPB303"}


# --- selection and framework ----------------------------------------------


def test_select_rules_filters_by_code():
    rules = select_rules(select=["SPB101", "SPB102"])
    assert [r.code for r in rules] == ["SPB101", "SPB102"]
    rules = select_rules(ignore=["SPB103"])
    assert "SPB103" not in [r.code for r in rules]


def test_selected_rules_limit_findings():
    source = """
    import time

    def f():
        for x in {"a", "b"}:
            time.time()
    """
    all_findings = lint_sim(source)
    assert set(codes(all_findings)) == {"SPB102", "SPB103"}
    only_clock = lint_sim(source, rules=select_rules(select=["SPB102"]))
    assert codes(only_clock) == ["SPB102"]


def test_linting_never_runs_the_linted_code(tmp_path):
    # A module that defines a top-level SCHEMES table and writes a
    # marker file when imported: every rule reads its source, none runs it.
    marker = tmp_path / "imported.marker"
    module = tmp_path / "schemes_table.py"
    module.write_text(
        "from pathlib import Path\n"
        f"Path({str(marker)!r}).write_text('imported')\n"
        "SCHEMES = {}\n"
    )
    lint_paths([module], rules=select_rules())
    assert not marker.exists()


def test_syntax_error_reported_as_spb001():
    findings = lint_source("def broken(:\n", "broken.py", module=SIM_MODULE)
    assert codes(findings) == ["SPB001"]


def test_module_name_for_path(tmp_path):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    target = pkg / "engine.py"
    target.write_text("x = 1\n")
    assert module_name_for_path(target) == "repro.sim.engine"
    assert module_name_for_path(pkg / "__init__.py") == "repro.sim"


# --- JSON output ----------------------------------------------------------


def test_json_report_schema():
    findings = lint_sim(
        """
        import time

        def f():
            return time.time()
        """
    )
    payload = json.loads(findings_to_json(findings))
    assert payload["version"] == 1
    assert payload["total"] == 1
    assert payload["counts"] == {"SPB102": 1}
    (entry,) = payload["findings"]
    assert set(entry) == {"code", "severity", "path", "line", "col", "message"}
    assert entry["code"] == "SPB102"
    assert entry["severity"] == "error"
    assert entry["path"] == "fixture.py"
    assert isinstance(entry["line"], int) and entry["line"] > 0


def test_json_report_empty():
    payload = json.loads(findings_to_json([]))
    assert payload == {"version": 1, "findings": [], "counts": {}, "total": 0}


def test_findings_sorted_deterministically():
    findings = lint_sim(
        """
        import time, os

        def f():
            b = os.getenv("X")
            a = time.time()
            return a, b
        """
    )
    assert [f.line for f in findings] == sorted(f.line for f in findings)


# --- SPB505: resilience hygiene --------------------------------------------


def lint_runtime_fixture(source: str, **kwargs):
    """Lint a snippet as generic harness code (runner territory)."""
    return lint_source(
        textwrap.dedent(source),
        "fixture.py",
        module="repro.analysis.fixture",
        **kwargs,
    )


def test_spb505_raw_time_sleep():
    findings = lint_runtime_fixture(
        """
        import time

        def backoff():
            time.sleep(0.5)
        """
    )
    assert codes(findings) == ["SPB505"]


def test_spb505_from_import_sleep():
    findings = lint_runtime_fixture(
        """
        from time import sleep

        def backoff():
            sleep(0.5)
        """
    )
    assert codes(findings) == ["SPB505"]


def test_spb505_hand_rolled_retry_loop():
    findings = lint_runtime_fixture(
        """
        def attach(fn):
            while True:
                try:
                    return fn()
                except FileNotFoundError:
                    continue
        """
    )
    assert codes(findings) == ["SPB505"]


def test_spb505_nested_loop_continue_not_flagged():
    # The continue belongs to the inner for-loop, not the retry shape.
    findings = lint_runtime_fixture(
        """
        def harvest(futures):
            while futures:
                try:
                    futures[0].result()
                except ValueError:
                    for f in futures:
                        if f.done():
                            continue
                    futures.pop(0)
        """
    )
    assert codes(findings) == []


def test_spb505_reraising_handler_not_flagged():
    findings = lint_runtime_fixture(
        """
        def pump(queue):
            while True:
                try:
                    queue.get()
                except KeyboardInterrupt:
                    raise
        """
    )
    assert codes(findings) == []


def test_spb505_flags_sleep_in_every_repro_package():
    # No package is exempt: the runner's task budget is the only retry.
    findings = lint_source(
        textwrap.dedent(
            """
            import time

            def sleep_for(seconds):
                time.sleep(seconds)
            """
        ),
        "fixture.py",
        module="repro.resilience.clock",
    )
    assert codes(findings) == ["SPB505"]


# --- SPB502: artifact I/O must be atomic -----------------------------------


def lint_artifact(source: str, **kwargs):
    """Lint a snippet as if it lived inside the analysis layer."""
    return lint_source(
        textwrap.dedent(source), "fixture.py", module=ANALYSIS_MODULE, **kwargs
    )


def test_spb502_bare_open_write():
    findings = lint_artifact(
        """
        def save(path, text):
            with open(path, "w") as handle:
                handle.write(text)
        """
    )
    assert codes(findings) == ["SPB502"]


def test_spb502_append_and_exclusive_modes_flagged():
    findings = lint_artifact(
        """
        def save(path):
            open(path, "a").close()
            open(path, mode="xb").close()
        """
    )
    assert codes(findings) == ["SPB502", "SPB502"]


def test_spb502_json_dump_to_handle():
    findings = lint_artifact(
        """
        import json

        def save(handle, payload):
            json.dump(payload, handle)
        """
    )
    assert codes(findings) == ["SPB502"]


def test_spb502_path_write_text():
    findings = lint_artifact(
        """
        def save(path, text):
            path.write_text(text)
        """
    )
    assert codes(findings) == ["SPB502"]


def test_spb502_reads_and_dumps_are_clean():
    findings = lint_artifact(
        """
        import json

        def load(path):
            with open(path) as handle:
                return json.load(handle)

        def render(payload):
            return json.dumps(payload, sort_keys=True)
        """
    )
    assert findings == []


def test_spb502_read_mode_literal_is_clean():
    findings = lint_artifact(
        """
        def load(path):
            with open(path, "rb") as handle:
                return handle.read()
        """
    )
    assert findings == []


def test_spb502_atomic_writer_is_clean():
    findings = lint_artifact(
        """
        from repro.durability import write_artifact

        def save(path, text):
            write_artifact(path, text)
        """
    )
    assert findings == []


def test_spb502_out_of_scope_module_is_clean():
    findings = lint_source(
        textwrap.dedent(
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """
        ),
        "fixture.py",
        module="repro.workloads.fixture",
    )
    assert codes(findings) == []


def test_spb502_fault_layer_in_scope():
    findings = lint_source(
        textwrap.dedent(
            """
            def save(path, text):
                path.write_bytes(text)
            """
        ),
        "fixture.py",
        module="repro.fault.minimize",
    )
    assert codes(findings) == ["SPB502"]


def test_spb502_suppression():
    findings = lint_artifact(
        """
        def debug_dump(path, text):
            with open(path, "w") as handle:  # secpb-lint: disable=SPB502
                handle.write(text)
        """
    )
    assert findings == []


# --- SPB304: warmup param without subtract --------------------------------


def test_spb304_warmup_param_without_subtract():
    findings = lint_sim(
        """
        def run(traces, warmup_frac=0.0):
            stats = collect(traces)
            return stats.as_dict()
        """
    )
    assert codes(findings) == ["SPB304"]


def test_spb304_clean_with_subtract():
    findings = lint_sim(
        """
        def run(traces, warmup_frac=0.0):
            stats = collect(traces)
            boundary = stats.snapshot()
            stats.subtract(boundary)
            return stats.as_dict()
        """
    )
    assert findings == []


def test_spb304_pass_through_param_is_clean():
    # Forwarding warmup_frac without touching the collector is fine.
    findings = lint_sim(
        """
        def run_scheme(trace, scheme, warmup_frac=0.0):
            return simulator.run(trace, warmup_frac)
        """
    )
    assert findings == []


def test_spb304_out_of_scope_module_is_clean():
    findings = lint_source(
        textwrap.dedent(
            """
            def run(traces, warmup_frac=0.0):
                stats = collect(traces)
                return stats.as_dict()
            """
        ),
        "fixture.py",
        module="repro.cli",
    )
    assert findings == []


# --- SPB601: print() in library scope -------------------------------------


def test_spb601_print_in_library_module():
    findings = lint_source(
        textwrap.dedent(
            """
            def report(result):
                print(result)
            """
        ),
        "fixture.py",
        module="repro.analysis.fixture",
    )
    assert codes(findings) == ["SPB601"]


def test_spb601_cli_modules_may_print():
    for module in ("repro.cli", "repro.lint.cli", "repro.__main__"):
        findings = lint_source(
            textwrap.dedent(
                """
                def report(result):
                    print(result)
                """
            ),
            "fixture.py",
            module=module,
        )
        assert findings == [], module


def test_spb601_non_repro_module_is_clean():
    findings = lint_source(
        "def f():\n    print('hi')\n", "fixture.py", module="scripts.tool"
    )
    assert findings == []


# --- SPB602: ad-hoc logging configuration ---------------------------------


def test_spb602_basicconfig_outside_obs():
    findings = lint_source(
        textwrap.dedent(
            """
            import logging

            def boot():
                logging.basicConfig(level=logging.INFO)
            """
        ),
        "fixture.py",
        module="repro.cli",
    )
    assert codes(findings) == ["SPB602"]


def test_spb602_dictconfig_flagged():
    findings = lint_source(
        textwrap.dedent(
            """
            import logging.config

            def boot(cfg):
                logging.config.dictConfig(cfg)
            """
        ),
        "fixture.py",
        module="repro.fault.fixture",
    )
    assert codes(findings) == ["SPB602"]


def test_spb602_obs_bootstrap_exempt():
    findings = lint_source(
        textwrap.dedent(
            """
            import logging

            def configure():
                logging.basicConfig(level=logging.WARNING)
            """
        ),
        "fixture.py",
        module="repro.obs.bootstrap",
    )
    assert findings == []


def test_spb602_getlogger_is_clean():
    findings = lint_source(
        textwrap.dedent(
            """
            import logging

            logger = logging.getLogger(__name__)
            """
        ),
        "fixture.py",
        module="repro.workloads.store",
    )
    assert findings == []
