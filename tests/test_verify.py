"""Verification suites: clean runs, the corruption hook, one bad case per
suite, the per-pair stream, and determinism under different worker counts."""

from fractions import Fraction

import pytest

from sl2forms import cli, forms, modules, omega, parallel, verify
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

    def test_negative_bound_rejected_before_any_suite(self, monkeypatch):
        def suite_ran(*args, **kwargs):
            raise AssertionError("a suite ran")

        # the stream over the grid runs first; with bound -1 its pair tasks
        # would never be called, so patching them alone would prove nothing
        for name in ("_sweep", "_pair", "sweep_karlsson_minton", "sweep_series_route"):
            monkeypatch.setattr(verify, name, suite_ran)
        with pytest.raises(ValueError, match="nonnegative"):
            verify_all(-1)

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
            return ModuleVector(v.module, (0,) * v.module.dim)

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
    forms.tensor_of_canonical_forms.cache_clear()


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestStream:
    """One pool call over the grid, one module and one Q⊗R per pair, and
    bounded caches that still compute each X^{s_k}b once."""

    def test_verify_all_builds_each_module_once(self, monkeypatch):
        maps = count_calls(monkeypatch, verify, "parallel_map")
        cold_caches()
        verify_all(4, jobs=1)
        info = modules.tensor_of_irreducibles.cache_info()
        assert info.misses == 25
        assert info.currsize <= 1
        assert len(maps) == 1
        # star-forms builds each Q⊗R; the pair's ω brute route reads it
        info = forms.tensor_of_canonical_forms.cache_info()
        assert info.misses == 25
        assert info.hits >= 25
        assert info.currsize <= 1

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

    def test_verify_star_builds_each_module_once(self, monkeypatch, capsys):
        maps = count_calls(monkeypatch, verify, "parallel_map")
        cold_caches()
        assert cli.main(["verify-star", "--max", "3", "--jobs", "1"]) == 0
        info = modules.tensor_of_irreducibles.cache_info()
        assert info.misses == 16
        assert info.currsize <= 1
        assert len(maps) == 1
        assert "star-forms: PASS (24 checks)" in capsys.readouterr().out


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
        """Workers are min(jobs, cpu count, tasks); a stub pool records the
        requested count, so no real pool is started."""
        requested = []

        class StubPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
        square = lambda x: x * x
        assert parallel.parallel_map(square, range(10), jobs=1000) == [
            x * x for x in range(10)
        ]
        assert parallel.parallel_map(square, range(3), jobs=1000) == [0, 1, 4]
        assert parallel.parallel_map(square, range(10), jobs=2) == [
            x * x for x in range(10)
        ]
        assert requested == [4, 3, 2]
        # one worker, by request, cpu count or task count, runs in-process
        assert parallel.parallel_map(square, range(10), jobs=1) == [
            x * x for x in range(10)
        ]
        assert parallel.parallel_map(square, [5], jobs=1000) == [25]
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert parallel.parallel_map(square, range(10), jobs=1000) == [
            x * x for x in range(10)
        ]
        assert requested == [4, 3, 2]

    def test_repeat_runs_identical(self):
        assert strip_timing(verify_all(2)) == strip_timing(verify_all(2))
