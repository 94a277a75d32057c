"""Verification suites: clean runs, the corruption hook, one bad case per
suite, the per-pair stream, and determinism under different worker counts."""

import inspect
import math
import os
import signal
import threading
import time
from fractions import Fraction

import pytest

from sl2forms import cli, forms, hypergeom, modules, omega, parallel, verify
from sl2forms.modules import ModuleVector
from sl2forms.omega import InconsistencyError
from sl2forms.verify import (
    SuiteResult,
    sweep_decomposition,
    sweep_karlsson_minton,
    sweep_omega_signs,
    sweep_relations,
    sweep_series_route,
    sweep_singular_vectors,
    sweep_star_forms,
    sweep_x_power,
    verify_all,
    verify_star,
)

SUITE_NAMES = [
    "relations",
    "star-forms",
    "decomposition",
    "singular-vectors",
    "x-power",
    "karlsson-minton",
    "3f2-route",
    "omega-signs",
]


def strip_timing(suites):
    return [(s.name, s.checks, s.failures) for s in suites]


class TestSuites:
    def test_verify_all_clean_at_small_bound(self):
        suites = verify_all(3)
        assert [s.name for s in suites] == SUITE_NAMES
        assert all(s.ok for s in suites)
        assert all(s.checks > 0 for s in suites)

    def test_suite_seconds_fit_in_the_call(self):
        # in process each suite's seconds are its own share of the call;
        # under --jobs > 1 their sum may exceed the wall time
        t0 = time.perf_counter()
        suites = verify_all(3, jobs=1)
        wall = time.perf_counter() - t0
        assert all(s.seconds >= 0 for s in suites)
        assert sum(s.seconds for s in suites) <= wall

    def test_verify_all_bound_zero(self):
        suites = verify_all(0)
        assert all(s.ok for s in suites)

    def test_nontrivial_q_r(self):
        suites = verify_all(2, q=Fraction(1, 2), r=Fraction(-3))
        assert all(s.ok for s in suites)

    def test_check_counts(self):
        assert sweep_relations(2).checks == 3 + 9       # irreducibles + pairs
        assert sweep_star_forms(2).checks == 6 + 9      # canonical q,r + tensor pairs
        assert sweep_decomposition(2).checks == 9
        assert sweep_singular_vectors(2).checks == sum(
            min(m, n) + 1 for m in range(3) for n in range(3)
        )
        assert sweep_x_power(2).checks == sweep_singular_vectors(2).checks
        assert sweep_karlsson_minton(1).checks == 6
        assert sweep_omega_signs(2).checks == sweep_singular_vectors(2).checks

    def test_verify_all_matches_the_suite_wrappers(self):
        # verify_all runs one fused stream; each sweep_* wrapper runs its
        # suite alone, and both must report the same checks and failures
        q, r = Fraction(-3, 2), Fraction(5, 7)
        wrappers = [
            sweep_relations(3, corrupt=True),
            sweep_star_forms(3, q, r),
            sweep_decomposition(3),
            sweep_singular_vectors(3),
            sweep_x_power(3),
            sweep_karlsson_minton(3),
            sweep_series_route(3),
            sweep_omega_signs(3, q, r),
        ]
        assert not wrappers[0].ok
        assert strip_timing(verify_all(3, q, r, corrupt=True)) == strip_timing(wrappers)

    @staticmethod
    def forbid_suites(monkeypatch):
        def suite_ran(*args, **kwargs):
            raise AssertionError("a suite ran")

        # with bound -1 the grid is empty and no pair task would be called,
        # so the local checks (V_m and both KM sweeps) are patched as well
        for name in ("_local_checks", "_pair", "parallel_map"):
            monkeypatch.setattr(verify, name, suite_ran)

    def test_negative_bound_rejected_before_any_suite(self, monkeypatch):
        self.forbid_suites(monkeypatch)
        with pytest.raises(ValueError, match="nonnegative"):
            verify_all(-1)

    @pytest.mark.parametrize("entry", [
        verify_star, sweep_relations, sweep_star_forms, sweep_decomposition,
        sweep_singular_vectors, sweep_x_power, sweep_karlsson_minton,
        sweep_series_route, sweep_omega_signs,
    ], ids=lambda entry: entry.__name__)
    def test_every_entry_point_rejects_a_negative_bound(self, monkeypatch, entry):
        self.forbid_suites(monkeypatch)
        with pytest.raises(ValueError, match="nonnegative"):
            entry(-1)

    @pytest.mark.parametrize("zero", ["q", "r"])
    @pytest.mark.parametrize("entry", [
        verify_all, verify_star, sweep_star_forms, sweep_omega_signs,
    ], ids=lambda entry: entry.__name__)
    def test_every_qr_entry_point_rejects_a_zero_q_or_r(self, monkeypatch, entry, zero):
        self.forbid_suites(monkeypatch)
        with pytest.raises(ValueError, match="nonzero"):
            entry(1, **{zero: 0})

    def test_degenerate_star_form_is_named_on_every_module(self, monkeypatch):
        # V_m and V_m⊗V_n failures share one text, naming every property
        monkeypatch.setattr(forms, "rank", lambda matrix: 0)
        assert sweep_star_forms(0, 2, 3).failures == (
            "V_0 q=2: degenerate",
            "V_0 q=3: degenerate",
            "V_0⊗V_0 q=2 r=3: degenerate",
        )

    def test_corruption_flips_relations_suite(self):
        suites = verify_all(2, corrupt=True)
        by_name = {s.name: s for s in suites}
        assert not by_name["relations"].ok
        assert "corrupt" in by_name["relations"].failures[0]
        # the damage is confined to the injected module
        for name in SUITE_NAMES[1:]:
            assert by_name[name].ok

    def test_corruption_at_bound_zero(self):
        suites = verify_all(0, corrupt=True)
        assert not suites[0].ok


class TestOneBadCase:
    """A case that raises is recorded as one failure naming it; the sweep
    goes on and counts the same checks."""

    def test_degenerate_omega_is_one_failure(self, monkeypatch):
        # Both ω routes give 0 for k = 0 on V_2⊗V_1, so they agree and the
        # real OmegaReport validation raises ValueError.
        case = (2, 1, 0)
        brute, closed = omega.x_power_b_brute, omega.omega_closed

        def zero_brute(m, n, k):
            v = brute(m, n, k)
            if (m, n, k) != case:
                return v
            return ModuleVector(v.module, ())

        def zero_closed(m, n, k, q, r):
            return 0 if (m, n, k) == case else closed(m, n, k, q, r)

        clean = sweep_omega_signs(3)
        monkeypatch.setattr(omega, "x_power_b_brute", zero_brute)
        monkeypatch.setattr(omega, "omega_closed", zero_closed)
        damaged = sweep_omega_signs(3)
        assert damaged.failures == (
            "V_2⊗V_1: row k=0 has value 0; ω_k must be nondegenerate",
        )
        assert damaged.checks == clean.checks

    def test_value_error_in_singular_route_is_one_failure(self, monkeypatch):
        kernel = verify.y_kernel_singular

        def broken(m, n, k):
            if (m, n, k) == (2, 1, 1):
                raise ValueError("damaged")
            return kernel(m, n, k)

        clean = sweep_singular_vectors(3)
        monkeypatch.setattr(verify, "y_kernel_singular", broken)
        damaged = sweep_singular_vectors(3)
        assert damaged.failures == ("(m=2,n=1,k=1): damaged",)
        assert damaged.checks == clean.checks

    @pytest.mark.parametrize(
        "suite, target, is_bad, error, failure",
        [
            ("relations", "check_relations",
             lambda module: module.label == "V_2⊗V_1", ValueError, "V_2⊗V_1: damaged"),
            ("star-forms", "is_star_form",
             lambda module, form: module.label == "V_2⊗V_1", InconsistencyError,
             "V_2⊗V_1: damaged"),
            ("x-power", "x_power_b_closed",
             lambda m, n, k: (m, n, k) == (2, 1, 1), ValueError, "(m=2,n=1,k=1): damaged"),
        ],
        ids=["relations", "star-forms", "x-power"],
    )
    def test_raise_at_one_pair_is_one_failure(
        self, monkeypatch, suite, target, is_bad, error, failure
    ):
        """In the fused stream the pair's other suites still run and pass."""
        original = getattr(verify, target)

        def broken(*args):
            if is_bad(*args):
                raise error("damaged")
            return original(*args)

        clean = verify_all(3, jobs=1)
        monkeypatch.setattr(verify, target, broken)
        damaged = verify_all(3, jobs=1)
        assert [(s.name, s.checks) for s in damaged] == [(s.name, s.checks) for s in clean]
        assert {s.name: s.failures for s in damaged if s.failures} == {suite: (failure,)}


def cold_caches():
    modules.tensor_of_irreducibles.cache_clear()
    omega.x_power_b_brute.cache_clear()


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestStream:
    """One pool call over the grid, one module per pair, one Q⊗R for each
    of star-forms and the ω table of a pair, and bounded caches that still
    compute each X^{s_k}b once."""

    def test_verify_all_builds_each_module_once(self, monkeypatch):
        maps = count_calls(monkeypatch, verify, "parallel_map")
        # one list for both callers: star-forms in `verify`, the ω table in `omega`
        qr_forms = count_calls(monkeypatch, verify, "tensor_of_canonical_forms")
        monkeypatch.setattr(omega, "tensor_of_canonical_forms",
                            verify.tensor_of_canonical_forms)
        cold_caches()
        verify_all(4, jobs=1)
        info = modules.tensor_of_irreducibles.cache_info()
        assert info.misses == 25
        assert info.currsize <= 1
        assert len(maps) == 1
        pairs = [(m, n) for m in range(5) for n in range(5)]
        # each pair twice: star-forms, then the ω table
        assert [call[:2] for call in qr_forms] == [p for p in pairs for _ in range(2)]

    def test_x_power_computed_once_per_triple(self, monkeypatch):
        powers = count_calls(monkeypatch, omega, "apply_power")
        cold_caches()
        suites = verify_all(6, jobs=1)
        triples = sum(min(m, n) + 1 for m in range(7) for n in range(7))
        # every triple is computed at least once, since x-power checks it
        assert {s.name: s.checks for s in suites}["x-power"] == triples
        assert len(powers) == triples
        info = omega.x_power_b_brute.cache_info()
        assert info.hits == triples   # the ω brute route reads each vector
        assert info.currsize < triples

    @pytest.mark.parametrize("m, names", [
        (31, ("x-power", "omega-signs")),
        (40, ("x-power", "omega-signs")),   # the largest pair of verify-all
        (5, ("omega-signs", "x-power")),    # whichever suite runs first fills it
    ], ids=["V31xV31", "V40xV40", "omega-signs-first"])
    def test_one_pair_task_computes_each_power_once(self, monkeypatch, m, names):
        powers = count_calls(monkeypatch, omega, "apply_power")
        cold_caches()
        results = verify._pair((m, m), Fraction(-3, 2), Fraction(5, 7), names)
        assert [(checks, failures) for checks, failures, _ in results] == [(m + 1, [])] * 2
        assert len(powers) == m + 1

    def test_x_power_cache_holds_the_largest_pair(self):
        largest = cli._SWEEP_MAX["verify-all"]
        assert omega.x_power_b_brute.cache_info().maxsize >= largest + 1

    def test_verify_star_builds_each_module_once(self, monkeypatch, capsys):
        maps = count_calls(monkeypatch, verify, "parallel_map")
        cold_caches()
        assert cli.main(["verify-star", "--max", "3", "--jobs", "1"]) == 0
        info = modules.tensor_of_irreducibles.cache_info()
        assert info.misses == 16
        assert info.currsize <= 1
        assert len(maps) == 1
        assert "star-forms: PASS (24 checks)" in capsys.readouterr().out


class TestPlan:
    """`_sweep` maps one task per suite with checks off the (m, n) grid and
    one per pair when a named suite is stated per pair, and no task that
    makes no check."""

    @staticmethod
    def record_maps(monkeypatch):
        """(items, results) of each `parallel_map` call that `verify` makes."""
        mapped = []

        def recording_map(fn, items, jobs=1):
            items = list(items)
            results = parallel.parallel_map(fn, items, jobs)
            mapped.append((items, results))
            return results

        monkeypatch.setattr(verify, "parallel_map", recording_map)
        return mapped

    @pytest.mark.parametrize("bound", [0, 3])
    @pytest.mark.parametrize("entry, local, paired", [
        (verify_all, 4, True),
        (verify_star, 2, True),
        (sweep_relations, 1, True),
        (sweep_decomposition, 0, True),
        (sweep_omega_signs, 0, True),
        (sweep_karlsson_minton, 1, False),
        (sweep_series_route, 1, False),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_mapped_tasks(self, monkeypatch, entry, local, paired, bound):
        mapped = self.record_maps(monkeypatch)
        entry(bound)
        [(items, results)] = mapped
        assert len(items) == local + (bound + 1) ** 2 * paired
        for result in results:
            assert result and all(checks > 0 for checks, _, _ in result)

    @pytest.mark.parametrize("entry, local, paired", [
        (verify_all, ("relations", "star-forms", "karlsson-minton", "3f2-route"),
         ("relations", "star-forms", "decomposition", "singular-vectors", "x-power",
          "omega-signs")),
        (verify_star, ("relations", "star-forms"), ("relations", "star-forms")),
    ], ids=["verify_all", "verify_star"])
    def test_local_tasks_in_suite_order_then_pairs_in_grid_order(
        self, monkeypatch, entry, local, paired
    ):
        mapped = self.record_maps(monkeypatch)
        entry(2)
        [(items, _)] = mapped
        assert [(task.suites, task.run.func, task.run.args[0]) for task in items] == (
            [((name,), verify._local_checks, name) for name in local]
            + [(paired, verify._pair, (m, n)) for m in range(3) for n in range(3)]
        )

    @pytest.mark.parametrize("entry, args", [
        (verify._sweep, (1, verify.SUITES)), (verify_all, (1,)), (verify_star, (1,)),
        (sweep_relations, (1,)), (sweep_star_forms, (1,)), (sweep_decomposition, (1,)),
        (sweep_singular_vectors, (1,)), (sweep_x_power, (1,)),
        (sweep_karlsson_minton, (1,)), (sweep_series_route, (1,)),
        (sweep_omega_signs, (1,)),
    ], ids=lambda value: getattr(value, "__name__", ""))
    def test_defaults_are_one_worker_and_q_r_one(self, monkeypatch, entry, args):
        # called with a bound alone, each entry point maps on one worker,
        # and every q and r it plans or passes to a form or ω call is 1
        workers, constants = [], []

        def serial_map(fn, tasks, jobs):
            workers.append(jobs)
            for task in tasks:
                # _local_checks(name, bound, q, r, corrupt), _pair((m, n), q, r, names)
                local = task.run.func is verify._local_checks
                constants.extend(task.run.args[2:4] if local else task.run.args[1:3])
            return [fn(task) for task in tasks]

        monkeypatch.setattr(verify, "parallel_map", serial_map)
        for name, skip in (("canonical_form", 1), ("tensor_of_canonical_forms", 2),
                           ("check_sign_alternation", 2)):
            def recorded(*call, fn=getattr(verify, name), skip=skip):
                constants.extend(call[skip:])
                return fn(*call)

            monkeypatch.setattr(verify, name, recorded)
        entry(*args)
        assert workers == [1]
        assert constants and all(c == 1 for c in constants)


class TestCoverage:
    """A suite whose counted checks differ from the closed-form count of
    what its bound promises fails, with one failure naming both numbers."""

    BOUND = 3

    @pytest.mark.parametrize("suite, count, label", [
        ("karlsson-minton", "km_tuple_count", "identity sweep"),
        ("3f2-route", "series_tuple_count", "series cross-route"),
    ])
    def test_km_count_one_short_fails_that_suite(self, monkeypatch, capsys,
                                                 suite, count, label):
        exact = getattr(hypergeom, count)(self.BOUND)
        clean = f'{{"tuples":{hypergeom.km_tuple_count(self.BOUND)},"failures":[]}}\n'
        one_more = lambda bound: exact + 1
        monkeypatch.setattr(verify, count, one_more)
        suites = verify_all(self.BOUND)
        assert [s.name for s in suites if not s.ok] == [suite]
        [failure] = {s.name: s for s in suites}[suite].failures
        assert failure == f"checked {exact} tuples, expected {exact + 1}"

        monkeypatch.setattr(hypergeom, count, one_more)
        args = ["verify-km", "--max", str(self.BOUND), "--format", "json"]
        assert cli.main(args) == 1
        out, err = capsys.readouterr()
        assert out == clean   # stdout as on a clean run
        gaps = [line for line in err.splitlines() if not line.startswith("[time]")]
        assert gaps == [f"{label}: checked {exact} tuples, expected {exact + 1}"]

    @staticmethod
    def assert_only_short_suite(suites, suite, counted, expected, unit):
        suites = {s.name: s for s in suites}
        assert [name for name, s in suites.items() if not s.ok] == [suite]
        assert suites[suite].checks == counted
        assert suites[suite].failures == (f"checked {counted} {unit}, expected {expected}",)

    @pytest.mark.parametrize("suite", [
        "singular-vectors", "x-power", "omega-signs", "relations", "star-forms",
        "decomposition",
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_k_step_one_line_short_fails_its_suite(self, monkeypatch, suite, jobs):
        # each step counts what it checked: the singular lines it ran, or
        # the pair once, so one that skipped a check of V_2⊗V_3 reports one
        # check fewer there, as this one does
        step, per_k = verify._PAIR_STEPS[suite]

        def one_short(m, n, q, r):
            checks, failures = step(m, n, q, r)
            return checks - ((m, n) == (2, 3)), failures

        monkeypatch.setitem(verify._PAIR_STEPS, suite, (one_short, per_k))
        lines = sum(min(m, n) + 1 for m in range(4) for n in range(4))
        expected, unit = {
            "relations": (4 + 16, "modules"),       # V_m + pairs
            "star-forms": (8 + 16, "forms"),        # canonical q,r + tensor pairs
            "decomposition": (16, "modules"),
        }.get(suite, (lines, "singular lines"))
        suites = verify_all(self.BOUND, jobs=jobs)
        self.assert_only_short_suite(suites, suite, expected - 1, expected, unit)

    @pytest.mark.parametrize("suite, loop, cut, counted, expected, unit", [
        ("relations", "for module in modules:", "for module in modules[1:]:",
         3 + 16, 4 + 16, "modules"),
        ("star-forms", "for m in range(bound + 1):", "for m in range(bound):",
         6 + 16, 8 + 16, "forms"),
    ], ids=["relations", "star-forms"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cut_module_loop_fails_its_suite(
        self, monkeypatch, suite, loop, cut, counted, expected, unit, jobs
    ):
        # the checks on each V_m are counted in the loop that makes them, so
        # a loop that stops one module short reports fewer
        source = inspect.getsource(verify._local_checks)
        assert source.count(loop) == 1
        namespace = dict(vars(verify))
        exec(source.replace(loop, cut), namespace)
        monkeypatch.setattr(verify, "_local_checks", namespace["_local_checks"])
        suites = verify_all(self.BOUND, jobs=jobs)
        self.assert_only_short_suite(suites, suite, counted, expected, unit)


class TestDeterminismAndParallelism:
    def test_worker_count_does_not_change_results(self):
        q, r = Fraction(1, 2), Fraction(-3)
        serial = verify_all(3, q, r, jobs=1, corrupt=True)
        parallel = verify_all(3, q, r, jobs=2, corrupt=True)
        assert not serial[0].ok   # the comparison covers a failure
        assert strip_timing(serial) == strip_timing(parallel)

    def test_parallel_star_sweep_matches_serial(self):
        q, r = Fraction(1, 2), Fraction(-1)
        a = sweep_star_forms(3, q, r, jobs=1)
        b = sweep_star_forms(3, q, r, jobs=2)
        assert (a.name, a.checks, a.failures) == (b.name, b.checks, b.failures)

    def test_worker_count_is_clamped(self, monkeypatch):
        """Workers are min(jobs, usable CPUs, tasks): each item reports its
        square and the process that mapped it, and the calling process maps
        the first.  The usable CPUs are the affinity set where `os` has one,
        else the CPU count."""
        here = os.getpid()

        def workers(count, jobs):
            out = parallel.parallel_map(lambda x: (x * x, os.getpid()), range(count), jobs)
            assert [value for value, _ in out] == [x * x for x in range(count)]
            assert out[0][1] == here
            return len({pid for _, pid in out})

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        assert [workers(10, 1000), workers(3, 1000), workers(10, 2)] == [4, 3, 2]
        # one worker, by request, usable CPUs or task count, runs in-process
        assert workers(10, 1) == 1
        assert workers(1, 1000) == 1
        # an affinity of one CPU on a two-CPU machine
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {1})
        assert workers(10, 1000) == 1
        # no affinity call (macOS): the CPU count, or 1 when it is unknown
        monkeypatch.delattr(parallel.os, "sched_getaffinity")
        assert workers(10, 1000) == 2
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert workers(10, 1000) == 1

    def test_repeat_runs_identical(self):
        assert strip_timing(verify_all(2)) == strip_timing(verify_all(2))


class TestForkJoin:
    """`parallel_map` with two workers: a forked child and this process.
    Every case ends with no child of this process left."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def in_child(action):
        """A task that runs `action` on item 1, which the child maps."""
        parent = os.getpid()

        def task(x):
            if x == 1:
                assert os.getpid() != parent
                action()
            return x

        return task

    def test_snake_order_and_input_order(self):
        # shares of 2 workers: items 0, 3, 4, 7 here and 1, 2, 5, 6 in the child
        here = os.getpid()
        out = parallel.parallel_map(lambda x: (x * x, os.getpid()), range(8), jobs=2)
        assert [value for value, _ in out] == [x * x for x in range(8)]
        assert [pid == here for _, pid in out] == [1, 0, 0, 1, 1, 0, 0, 1]

    def test_exception_in_child_is_raised_in_parent(self):
        def fail():
            raise KeyError("in the child")

        with pytest.raises(KeyError, match="in the child"):
            parallel.parallel_map(self.in_child(fail), range(4), jobs=2)

    def test_unpicklable_exception_comes_back_by_name(self):
        class Local(Exception):
            pass

        def fail():
            raise Local("not picklable")

        with pytest.raises(parallel.WorkerError, match="worker 1 raised Local: not picklable"):
            parallel.parallel_map(self.in_child(fail), range(4), jobs=2)

    def test_child_killed_by_a_signal_is_an_error(self):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(parallel.WorkerError, match="worker 1 .*SIGKILL"):
            parallel.parallel_map(self.in_child(die), range(4), jobs=2)

    def test_child_is_killed_when_this_share_raises(self):
        def task(x):
            if x == 0:
                raise ValueError("in the parent")
            signal.pause()  # the child waits until it is killed

        with pytest.raises(ValueError, match="in the parent"):
            parallel.parallel_map(task, range(2), jobs=2)

    def test_a_threaded_process_maps_in_process(self):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(10,))
        waiter.start()
        try:
            pids = parallel.parallel_map(lambda _: os.getpid(), range(4), jobs=2)
        finally:
            release.set()
            waiter.join(10)
        assert not waiter.is_alive()
        assert pids == [os.getpid()] * 4

    # verify-star plans its two V_m tasks and then the pairs, unlike verify-all
    @pytest.mark.parametrize("args, code", [
        (["verify-all", "--max", "7"], 0),
        (["verify-all", "--max", "7", "--debug-corrupt"], 1),
        (["verify-star", "--max", "7", "--q", "1/2"], 0),
    ], ids=["clean", "corrupt", "verify-star"])
    def test_verify_all_stdout_does_not_depend_on_jobs(self, capsys, args, code):
        out = []
        for jobs in ("1", "2"):
            out.append((cli.main([*args, "--jobs", jobs]), capsys.readouterr().out))
        assert out[0] == out[1]
        assert out[0][0] == code

    def test_karlsson_minton_corruption_at_both_worker_counts(self, monkeypatch):
        # perm(5, 4) feeds only the direct Karlsson-Minton sum
        monkeypatch.setattr(
            hypergeom, "perm", lambda x, y: math.perm(x, y) + ((x, y) == (5, 4))
        )
        serial, forked = (strip_timing(verify_all(5, jobs=jobs)) for jobs in (1, 2))
        assert serial == forked
        assert [name for name, _, failures in serial if failures] == ["karlsson-minton"]
