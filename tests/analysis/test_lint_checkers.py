"""Per-checker fixtures for the invariant linter.

Each rule gets at least one must-flag and one must-pass fixture, run
through :func:`repro.analysis.lint_source` (no cache, no baseline).  The
must-flag cases are exactly the mutation checks the linter exists for:
delete a ``with self._lock``, leak a segment, raise an untyped error,
read the wall clock on the hot path, ship an unpicklable field.
"""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source


def lint(source: str, path: str = "<snippet>") -> list:
    return lint_source(textwrap.dedent(source), path=path)


def rules_of(diags) -> list[str]:
    return [d.rule for d in diags]


# ---------------------------------------------------------------------- #
# guarded-field
# ---------------------------------------------------------------------- #
GUARDED_LOCKED = """
    import threading

    class Engine:
        def __init__(self):
            self._lock = threading.Lock()
            self._depth = 0  # guarded-by: _lock

        def bump(self):
            with self._lock:
                self._depth += 1

        def depth(self):
            with self._lock:
                return self._depth
"""


def test_guarded_field_clean_when_lock_held():
    assert lint(GUARDED_LOCKED) == []


def test_guarded_field_flags_unlocked_access():
    # The mutation check: same class with the `with self._lock:` deleted.
    diags = lint(
        """
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.Lock()
                self._depth = 0  # guarded-by: _lock

            def bump(self):
                self._depth += 1
        """
    )
    assert rules_of(diags) == ["guarded-field"]
    assert "self._depth" in diags[0].message
    assert "_lock" in diags[0].message
    assert diags[0].qualname == "Engine.bump"


def test_guarded_field_write_and_read_both_flagged():
    diags = lint(
        """
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.Lock()
                self._depth = 0  # guarded-by: _lock

            def bad(self):
                x = self._depth
                self._depth = x + 1
        """
    )
    assert rules_of(diags) == ["guarded-field", "guarded-field"]
    assert "read" in diags[0].message
    assert "written" in diags[1].message


def test_guarded_field_constructor_exempt_and_wrong_lock_flagged():
    diags = lint(
        """
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.Lock()
                self._other = threading.Lock()
                self._depth = 0  # guarded-by: _lock

            def bad(self):
                with self._other:
                    return self._depth
        """
    )
    # __init__'s write is exempt; holding the *wrong* lock still flags.
    assert rules_of(diags) == ["guarded-field"]


def test_guarded_field_pragma_documents_benign_race():
    assert (
        lint(
            """
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._running = True  # guarded-by: _lock

                def peek(self):
                    # lint: disable=guarded-field — racy read is benign
                    return self._running
            """
        )
        == []
    )


# ---------------------------------------------------------------------- #
# typed-raise
# ---------------------------------------------------------------------- #
RUNTIME_PATH = "src/repro/runtime/fake.py"


def test_untyped_raise_flagged_in_runtime_public_api():
    # The mutation check: a public entry point raising bare RuntimeError.
    diags = lint(
        """
        class Engine:
            def submit(self, x):
                raise RuntimeError("engine is stopped")
        """,
        path=RUNTIME_PATH,
    )
    assert rules_of(diags) == ["typed-raise"]
    assert "RuntimeError" in diags[0].message


def test_typed_and_propagating_raises_pass():
    assert (
        lint(
            """
            class EngineStopped(RuntimeError):
                pass

            class Engine:
                def submit(self, x):
                    if x is None:
                        raise ValueError("x required")
                    raise EngineStopped("stopped")

                def forward(self, exc):
                    try:
                        raise exc
                    except OSError:
                        raise
            """,
            path=RUNTIME_PATH,
        )
        == []
    )


def test_private_helpers_and_non_runtime_paths_unchecked():
    bad = """
        class Engine:
            def _retry(self):
                raise RuntimeError("internal sentinel")

        def _helper():
            raise RuntimeError("private")
    """
    assert lint(bad, path=RUNTIME_PATH) == []
    # A public raiser outside src/repro/runtime/ is out of contract scope.
    assert (
        lint(
            """
            def runner():
                raise RuntimeError("scripts may")
            """,
            path="benchmarks/fake.py",
        )
        == []
    )


# ---------------------------------------------------------------------- #
# broad-except
# ---------------------------------------------------------------------- #
def test_broad_except_flagged_everywhere():
    diags = lint(
        """
        def swallow():
            try:
                work()
            except Exception:
                pass
        """,
        path="benchmarks/fake.py",
    )
    assert rules_of(diags) == ["broad-except"]


def test_broad_except_reraise_or_pragma_passes():
    assert (
        lint(
            """
            def chain():
                try:
                    work()
                except Exception as exc:
                    raise ValueError("wrapped") from exc

            def noted():
                try:
                    work()
                # lint: disable=broad-except — failure is counted and
                # asserted on below
                except Exception:
                    pass
            """
        )
        == []
    )


def test_bare_and_base_exception_also_flagged():
    diags = lint(
        """
        def a():
            try:
                work()
            except:
                pass

        def b():
            try:
                work()
            except (ValueError, BaseException):
                pass
        """
    )
    assert rules_of(diags) == ["broad-except", "broad-except"]


# ---------------------------------------------------------------------- #
# hot-path
# ---------------------------------------------------------------------- #
def test_hot_path_wall_clock_flagged():
    # The mutation check: time.time() sneaking into a @hot_path function.
    diags = lint(
        """
        import time
        from repro.analysis.annotations import hot_path

        @hot_path
        def record(batch):
            return time.time()
        """
    )
    assert rules_of(diags) == ["hot-path"]
    assert "perf_counter" in diags[0].message


def test_hot_path_lock_construction_print_and_log_flagged():
    diags = lint(
        """
        import threading
        from repro.analysis.annotations import hot_path

        @hot_path
        def busy(logger):
            lock = threading.Lock()
            print("serving")
            logger.info("served")
            return lock
        """
    )
    assert rules_of(diags) == ["hot-path"] * 3


def test_hot_path_monotonic_clocks_pass_and_undecorated_ignored():
    assert (
        lint(
            """
            import time
            from repro.analysis.annotations import hot_path

            @hot_path
            def record(batch):
                t0 = time.perf_counter()
                return time.monotonic() - t0

            def cold():
                print(time.time())
            """
        )
        == []
    )


def test_hot_path_from_import_of_time_tracked():
    diags = lint(
        """
        from time import time
        from repro.analysis.annotations import hot_path

        @hot_path
        def record():
            return time()
        """
    )
    assert rules_of(diags) == ["hot-path"]


# ---------------------------------------------------------------------- #
# cross-process
# ---------------------------------------------------------------------- #
def test_cross_process_unpicklable_field_flagged():
    # The mutation check: a lock smuggled into a pipe-shipped dataclass.
    diags = lint(
        """
        import threading
        from dataclasses import dataclass
        from repro.analysis.annotations import cross_process

        @cross_process
        @dataclass
        class Msg:
            uid: int
            lock: threading.Lock
        """
    )
    assert rules_of(diags) == ["cross-process"]
    assert "'lock'" in diags[0].message and "Msg" in diags[0].message


def test_cross_process_primitives_containers_ndarray_pass():
    assert (
        lint(
            """
            from dataclasses import dataclass
            import numpy as np
            from repro.analysis.annotations import cross_process

            @cross_process
            @dataclass
            class Msg:
                uid: int
                name: str
                payload: np.ndarray
                widths: dict[int, int]
                shape: tuple[int, ...]
                note: "str | None" = None
            """
        )
        == []
    )


def test_cross_process_resolves_through_state_dunders_and_dataclasses():
    assert (
        lint(
            """
            from dataclasses import dataclass
            from repro.analysis.annotations import cross_process

            class Histogram:
                def __getstate__(self):
                    return {}

                def __setstate__(self, state):
                    pass

            @dataclass
            class Inner:
                count: int

            @cross_process
            @dataclass
            class Counters:
                hist: Histogram
                inner: Inner
            """
        )
        == []
    )


def test_cross_process_bad_nested_field_reported_via_path():
    diags = lint(
        """
        import threading
        from dataclasses import dataclass
        from repro.analysis.annotations import cross_process

        @dataclass
        class Inner:
            lock: threading.Lock

        @cross_process
        @dataclass
        class Outer:
            inner: Inner
        """
    )
    assert rules_of(diags) == ["cross-process"]
    assert "via Inner.lock" in diags[0].message


def test_cross_process_undecorated_class_ignored():
    assert (
        lint(
            """
            import threading
            from dataclasses import dataclass

            @dataclass
            class Local:
                lock: threading.Lock
            """
        )
        == []
    )
