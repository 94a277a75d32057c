"""CLI contract: output shapes, JSON schemas, exit codes, determinism.

Each case runs the installed module in a subprocess, exactly as a user
would."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "sl2forms"]
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*args):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=300
    )


class TestDecompose:
    def test_text(self):
        proc = run("decompose", "2", "3")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "V2⊗V3 = V1 ⊕ V3 ⊕ V5 (dim 12 ✓)"

    def test_trivial_factor(self):
        proc = run("decompose", "0", "4")
        assert proc.returncode == 0
        assert "V0⊗V4 = V4" in proc.stdout

    def test_json(self):
        proc = run("decompose", "1", "1", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"summands": [[0, 1], [2, 1]]}

    def test_negative_m_is_usage_error(self):
        assert run("decompose", "-2", "3").returncode == 2


class TestSingularVector:
    def test_text(self):
        proc = run("singular-vector", "1", "1", "1")
        assert proc.returncode == 0
        line = proc.stdout.strip()
        assert line.startswith("b_0 = e_{-1}⊗ẽ_{1} - e_{1}⊗ẽ_{-1}")
        assert "Yb = 0 ✓" in line and "null-space route ✓" in line

    def test_lowest_weight_case(self):
        proc = run("singular-vector", "3", "2", "0")
        assert proc.returncode == 0
        assert proc.stdout.startswith("b_{-5} = e_{-3}⊗ẽ_{-2}")

    def test_json(self):
        proc = run("singular-vector", "2", "3", "2", "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["m"] == 2 and doc["n"] == 3 and doc["k"] == 2 and doc["s"] == 1
        assert doc["terms"] == [
            ["e_{-2}⊗ẽ_{1}", "1"],
            ["e_{0}⊗ẽ_{-1}", "-1"],
            ["e_{2}⊗ẽ_{-3}", "1"],
        ]
        assert doc["y_annihilates"] is True
        assert doc["null_space_agrees"] is True

    def test_k_out_of_range_is_usage_error(self):
        assert run("singular-vector", "2", "2", "3").returncode == 2


class TestOmegaTable:
    def test_text(self):
        proc = run("omega-table", "2", "1")
        assert proc.returncode == 0
        assert "k=0  s=3  ω=12  sign=+" in proc.stdout
        assert "k=1  s=1  ω=-3  sign=-" in proc.stdout
        assert proc.stdout.strip().endswith("alternating: PASS")

    def test_sign_flip_with_negative_r(self):
        proc = run("omega-table", "1", "1", "--q", "1", "--r", "-1", "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["q"] == "1" and doc["r"] == "-1"
        assert [(row["k"], row["s"], row["value"], row["sign"]) for row in doc["rows"]] == [
            (0, 2, "-2", -1),
            (1, 0, "2", 1),
        ]
        assert doc["alternating"] is True

    def test_trivial_module(self):
        proc = run("omega-table", "0", "0", "--q", "1/2", "--r", "3")
        assert proc.returncode == 0
        assert "k=0  s=0  ω=3/2  sign=+" in proc.stdout

    def test_zero_q_is_usage_error(self):
        assert run("omega-table", "1", "1", "--q", "0").returncode == 2

    def test_rational_literals_accepted(self):
        proc = run("omega-table", "2", "2", "--q", "1/2", "--r=-3/7")
        assert proc.returncode == 0


class TestVerifyKM:
    def test_json_schema(self):
        proc = run("verify-km", "--max", "6", "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert set(doc) == {"tuples", "failures"}
        assert doc["failures"] == []
        expected = sum(
            (min(m, n) + 1) * (min(m, n) + 2) // 2
            for m in range(7)
            for n in range(7)
        )
        assert doc["tuples"] == expected

    def test_bound_zero(self):
        proc = run("verify-km", "--max", "0")
        assert proc.returncode == 0
        assert "1 tuples, 0 failures" in proc.stdout

    def test_jobs_is_usage_error(self):
        # the Karlsson-Minton sweeps run in one process and take no --jobs
        proc = run("verify-km", "--max", "1", "--jobs", "2")
        assert proc.returncode == 2
        assert "unrecognized arguments: --jobs 2" in proc.stderr


class TestVerifyStar:
    def test_clean(self):
        proc = run("verify-star", "--max", "3", "--q", "1/2", "--r", "-1")
        assert proc.returncode == 0
        assert "relations: PASS" in proc.stdout
        assert "star-forms: PASS" in proc.stdout


class TestVerifyAll:
    def test_clean_run_exits_zero(self):
        proc = run("verify-all", "--max", "3")
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("overall: PASS")

    def test_json_document(self):
        proc = run("verify-all", "--max", "2", "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["ok"] is True
        assert [s["name"] for s in doc["suites"]] == [
            "relations",
            "star-forms",
            "decomposition",
            "singular-vectors",
            "x-power",
            "karlsson-minton",
            "3f2-route",
            "omega-signs",
        ]
        assert all(s["failures"] == [] for s in doc["suites"])

    def test_corruption_flips_to_failure(self):
        proc = run("verify-all", "--max", "2", "--debug-corrupt")
        assert proc.returncode == 1
        assert "relations: FAIL" in proc.stdout
        assert "overall: FAIL" in proc.stdout

    def test_zero_q_is_usage_error(self):
        assert run("verify-all", "--max", "2", "--q", "0").returncode == 2

    def test_json_runs_are_byte_identical(self):
        a = run("verify-all", "--max", "2", "--format", "json")
        b = run("verify-all", "--max", "2", "--format", "json")
        assert a.stdout == b.stdout

    def test_timing_goes_to_stderr_not_stdout(self):
        proc = run("verify-all", "--max", "1")
        assert "[time]" in proc.stderr
        assert "[time]" not in proc.stdout


class TestUsage:
    def test_missing_command(self):
        assert run().returncode == 2

    def test_unknown_command(self):
        assert run("frobnicate").returncode == 2

    def test_bad_rational(self):
        assert run("omega-table", "1", "1", "--q", "one").returncode == 2

    def test_bad_rational_message(self):
        proc = run("omega-table", "1", "1", "--q", "1/0")
        assert proc.returncode == 2
        assert "not a rational literal: '1/0'" in proc.stderr

    def test_zero_or_negative_jobs_is_usage_error(self):
        for jobs in ("0", "-1"):
            proc = run("verify-all", "--max", "1", "--jobs", jobs)
            assert proc.returncode == 2
            assert "must be positive" in proc.stderr

    def test_one_job_runs(self):
        assert run("verify-all", "--max", "1", "--jobs", "1").returncode == 0


class TestFullVerificationScript:
    """scripts/full_verification.py parses --max and --jobs with the CLI's
    argument types."""

    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "full_verification.py"

    def test_bad_bounds_are_usage_errors(self):
        for flag, value in (("--max", "-1"), ("--jobs", "-5"), ("--jobs", "0")):
            proc = subprocess.run(
                [sys.executable, str(self.SCRIPT), flag, value],
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 2, (flag, value)
            assert "Traceback" not in proc.stderr


# (golden file, arguments, exit code).  Each file under tests/golden/ is the
# command's stdout, byte for byte; after an intended output change,
# regenerate it with `python -m sl2forms ARGS > tests/golden/NAME.txt`.
GOLDEN_CASES = [
    ("verify-all-max6-text",
     ["verify-all", "--max", "6", "--jobs", "1", "--q=-3/2", "--r=5/7"], 0),
    ("verify-all-max6-json",
     ["verify-all", "--max", "6", "--jobs", "1", "--q=-3/2", "--r=5/7",
      "--format", "json"], 0),
    ("verify-all-max4-corrupt",
     ["verify-all", "--max", "4", "--jobs", "1", "--debug-corrupt"], 1),
    ("omega-table-5-3", ["omega-table", "5", "3", "--q=2/3", "--r=-7"], 0),
    # the README's command-line examples, as written there
    ("readme-decompose", ["decompose", "2", "3"], 0),
    ("readme-singular-vector", ["singular-vector", "1", "1", "1"], 0),
    ("readme-omega-table", ["omega-table", "2", "1"], 0),
    ("readme-verify-km", ["verify-km", "--max", "20"], 0),
    ("readme-verify-star", ["verify-star", "--max", "12", "--q", "1/2"], 0),
    ("readme-verify-all", ["verify-all", "--max", "8"], 0),
]


@pytest.mark.parametrize(
    "name, args, code", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES]
)
def test_stdout_matches_golden(name, args, code):
    proc = subprocess.run(BASE + args, capture_output=True, timeout=300)
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()
