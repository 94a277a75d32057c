"""CLI contract: output shapes, JSON schemas, exit codes, determinism.

Most cases run the installed module in a subprocess, exactly as a user
would.  The rest call `cli.main` or the parser in process, to read a usage
error or to patch a layer (an ω route made to fail)."""

import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sl2forms import cli, omega

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

    @pytest.mark.parametrize("fmt, verdict", [
        ("text", "alternating: FAIL\n"), ("json", '"alternating":false}\n'),
    ])
    def test_wrong_signs_fail(self, monkeypatch, capsys, fmt, verdict):
        # both routes negated: they agree, and every sign is wrong
        for name in ("evaluate", "omega_closed"):
            monkeypatch.setattr(omega, name, lambda *a, f=getattr(omega, name): -f(*a))
        assert cli.main(["omega-table", "3", "2", "--format", fmt]) == 1
        assert capsys.readouterr().out.endswith(verdict)

    def test_route_disagreement_fails_with_empty_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(omega, "omega_closed",
                            lambda *a, f=omega.omega_closed: f(*a) + 1)
        assert cli.main(["omega-table", "3", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("route disagreement: ω_0(b,b) routes disagree on V_3⊗V_2")


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

    def test_each_route_is_timed_on_stderr(self):
        # the suite names and format of verify-all's timings, then the total
        proc = run("verify-km", "--max", "2")
        assert proc.returncode == 0
        assert "[time]" not in proc.stdout
        lines = proc.stderr.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "[time] karlsson-minton", "[time] 3f2-route", "[time] total",
        ]
        assert all(re.fullmatch(r"\[time\] [\w-]+: \d+\.\d\ds", line) for line in lines)


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


class TestParser:
    def test_every_subcommand_has_a_handler(self):
        parser = cli.build_parser()
        action = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, sub in action.choices.items():
            assert callable(sub.get_default("run")), name

    @pytest.mark.parametrize("args", [
        ["omega-table", "1", "1"],
        ["verify-star", "--max", "1"],
        ["verify-all", "--max", "1"],
    ], ids=lambda args: args[0])
    @pytest.mark.parametrize("flag", ["--q", "--r"])
    def test_zero_q_or_r_is_usage_error(self, args, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + [flag, "0"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be nonzero: 0" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["omega-table", "1", "1"],
        ["verify-star", "--max", "1"],
        ["verify-all", "--max", "1", "--format", "json"],
    ], ids=lambda args: args[0])
    @pytest.mark.parametrize("flag, value", [
        ("--q", "1e5000"), ("--r", "-1e-1001"), ("--q", "1e10000000"), ("--r", "3e1000"),
    ])
    def test_q_or_r_past_the_bound_is_usage_error(self, args, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + [f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: numerator and denominator must be at most 10^1000" in err

    def test_huge_exponent_is_refused_before_fraction_builds_it(self, monkeypatch):
        def parse_rational(text):
            raise AssertionError(f"parsed {text}")

        monkeypatch.setattr(cli, "parse_rational", parse_rational)
        for text in ("1e3000000", "-7.5E-10000000", "0.001e+1200_000"):
            with pytest.raises(argparse.ArgumentTypeError, match="at most 10\\^1000"):
                cli._nonzero_rational(text)

    def test_q_and_r_at_the_bound_are_printed(self, capsys):
        big = "1" + "0" * 1000
        assert cli.main(["omega-table", "2", "1", "--q", "1e1000", "--r=-1e1000",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["q"], payload["r"]) == (big, "-" + big)
        # ω = 12qr and -3qr on V_2⊗V_1 (README), each with 2002 or 2003 digits
        zeros = "0" * 2000
        assert [row["value"] for row in payload["rows"]] == ["-12" + zeros, "3" + zeros]
        # the same values written with more mantissa digits, or as 1/10^1000
        assert cli._nonzero_rational("0.1e1001") == int(big)
        assert cli._nonzero_rational("1e-1000") == Fraction(1, int(big))


class TestSizeBounds:
    """Every size the CLI accepts is bounded: one past its bound is a usage
    error (exit 2), found by argparse before any module is built."""

    CASES = {
        "decompose-m": (["decompose", "{}", "0"], 200),
        "decompose-n": (["decompose", "0", "{}"], 200),
        "singular-vector-m": (["singular-vector", "{}", "1", "0"], 200),
        "singular-vector-n": (["singular-vector", "1", "{}", "0"], 200),
        "omega-table-m": (["omega-table", "{}", "2"], 200),
        "omega-table-n": (["omega-table", "2", "{}"], 200),
        "verify-km": (["verify-km", "--max", "{}"], 72),
        "verify-star": (["verify-star", "--jobs", "1", "--max", "{}"], 48),
        "verify-all": (["verify-all", "--jobs", "1", "--max", "{}"], 40),
    }

    @staticmethod
    def args(template, value):
        return [a.format(value) for a in template]

    @pytest.mark.parametrize("template, bound", CASES.values(), ids=list(CASES))
    def test_one_past_the_bound_is_usage_error(self, template, bound, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.args(template, bound + 1))
        assert exc.value.code == 2
        assert f"must be at most {bound}: {bound + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("template, bound", CASES.values(), ids=list(CASES))
    def test_the_bound_itself_parses(self, template, bound):
        args = cli.build_parser().parse_args(self.args(template, bound))
        assert bound in vars(args).values()


class TestLongArguments:
    """A usage error echoes at most a short prefix of the argument."""

    LONG = 100_000

    @pytest.mark.parametrize("args", [
        ["omega-table", "2", "1", "--q=" + "x" * LONG],
        ["omega-table", "2", "1", "--r=" + "1" * LONG],
        ["omega-table", "2", "1", "--q=0." + "0" * LONG],
        ["omega-table", "2", "1", "--q=" + "7" * 4000 + "/2"],
        ["verify-km", "--max", "9" * LONG],
        ["verify-all", "--max", "1", "--jobs", "-" + "9" * 4000],
        ["decompose", "x" * LONG, "0"],
        ["singular-vector", "1", "1", "9" * 4000],
        ["verify-km", "--format", "x" * LONG],
        ["x" * LONG],
        ["verify-km", "--max", "1", "x" * LONG],
    ], ids=["q-text", "r-digits", "q-zero", "q-past-bound", "max-digits",
            "jobs-negative", "m-text", "k-past-min", "format-choice",
            "command", "unrecognized"])
    def test_message_is_short(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert len(capsys.readouterr().err) < 600


class TestOversizedIntegers:
    """An integer literal past int()'s digit limit (4,300 by default) is
    out of range, not "not an integer"; the echo stays short."""

    HUGE = "9" * 5000

    @pytest.mark.parametrize("args, message", [
        (["verify-km", "--max", HUGE], "must be at most 72: 99"),
        (["verify-all", "--max", "1", "--jobs", HUGE], "too many digits: 99"),
        (["singular-vector", "1", "1", HUGE], "too many digits: 99"),
        (["verify-all", "--max", "1", "--jobs", "-" + HUGE], "must be positive: -99"),
        (["decompose", "-" + HUGE, "0"], "must be nonnegative: -99"),
        (["verify-km", "--max", HUGE + "x"], "not an integer: '99"),
    ], ids=["bounded", "positive", "nonnegative", "negative-positive",
            "negative-size", "malformed"])
    def test_reported_as_out_of_range(self, args, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "characters)" in err and len(err) < 600


class TestOversizedRationals:
    """A well-formed q or r literal with a digit run past int()'s digit
    limit reads `too many digits`, as an integer does; the echo stays short."""

    @pytest.mark.parametrize("value", [
        "1" * 5000, "1/" + "3" * 5000, "0." + "0" * 5000 + "1",
    ], ids=["integer", "denominator", "decimal"])
    def test_reported_as_too_many_digits(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["omega-table", "1", "1", "--q", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --q: too many digits: {value[:40]}..." in err
        assert "characters)" in err and len(err) < 600

    @pytest.mark.parametrize("value", ["1/0", "1/" + "0" * 5000, "1/2e3", "x" * 5000])
    def test_malformed_literal_is_not_too_long(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["omega-table", "1", "1", "--q", value])
        assert exc.value.code == 2
        assert "argument --q: not a rational literal: " in capsys.readouterr().err

    @staticmethod
    def q_error(value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["omega-table", "1", "1", "--q", value])
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="Fraction() reads 1_0 from 3.11")
    def test_long_underscored_literal_is_too_many_digits(self, capsys):
        value = "1_" * 4400 + "1"   # 4,401 digits, past int()'s limit
        err = self.q_error(value, capsys)
        assert f"argument --q: too many digits: {value[:40]}..." in err
        assert "characters)" in err and len(err) < 600

    @pytest.mark.skipif(sys.version_info >= (3, 11), reason="Fraction() reads 1_0 from 3.11")
    def test_underscored_literal_is_malformed_before_3_11(self, capsys):
        assert "argument --q: not a rational literal: '1_0'" in self.q_error("1_0", capsys)

    def test_spaces_around_the_slash_follow_fraction(self, capsys):
        # Fraction() reads "1 / 2" from Python 3.12 only; before, the literal
        # is malformed, not too long
        if sys.version_info >= (3, 12):
            assert cli._nonzero_rational("1 / 2") == Fraction(1, 2)
        else:
            err = self.q_error("1 / 2", capsys)
            assert "argument --q: not a rational literal: '1 / 2'" in err


class TestFullVerificationScript:
    """scripts/full_verification.py parses --max and --jobs with the CLI's
    argument types, and bounds --max as `verify-all` does."""

    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "full_verification.py"

    def test_bad_bounds_are_usage_errors(self):
        for flag, value in (("--max", "-1"), ("--max", "41"), ("--jobs", "-5"),
                            ("--jobs", "0")):
            proc = subprocess.run(
                [sys.executable, str(self.SCRIPT), flag, value],
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 2, (flag, value)
            assert "Traceback" not in proc.stderr

    def run_script(self, *args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *args],
            capture_output=True, text=True, timeout=120, env=env,
        )

    def test_small_bound_passes_on_every_grid_point(self):
        proc = self.run_script("--max", "2")
        assert proc.returncode == 0, proc.stderr
        *rows, last = proc.stdout.splitlines()
        assert len(rows) == 16
        assert all(row.startswith("q=") and row.endswith("  PASS") for row in rows)
        assert last == "overall: PASS"

    def test_bound_past_verify_all_is_refused(self):
        proc = self.run_script("--max", "41")
        assert proc.returncode == 2
        assert "must be at most 40" in proc.stderr


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
    # a +1 term after the first term, and the null-space route in text
    ("singular-vector-4-4-2", ["singular-vector", "4", "4", "2"], 0),
    # the commands of the benchmark's km, sweep and large-module workloads
    ("verify-km-max16-json", ["verify-km", "--max", "16", "--format", "json"], 0),
    ("verify-all-max12-json",
     ["verify-all", "--max", "12", "--jobs", "1", "--q=-3/2", "--r=5/7",
      "--format", "json"], 0),
    ("omega-table-40-40-json",
     ["omega-table", "40", "40", "--q=-3/2", "--r=5/7", "--format", "json"], 0),
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


# Runs `python -m sl2forms ARGS` in this interpreter, then prints the names
# of every loaded module as the last stdout line.
LOADED_AFTER = """\
import json, runpy, sys
sys.argv[0] = "sl2forms"
try:
    runpy.run_module("sl2forms", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)))
"""


# No subcommand needs `dataclasses`, or the `inspect` it imports (with `ast`
# and `dis`); the package's records are NamedTuples (`sl2forms.records`).
NEVER_LOADED = ["dataclasses", "inspect"]


@pytest.mark.parametrize("args, loaded, absent", [
    (["verify-km", "--max", "2"], ["sl2forms.hypergeom"],
     ["sl2forms.linalg", "sl2forms.modules", "sl2forms.forms",
      "sl2forms.omega", "sl2forms.verify"]),
    (["decompose", "0", "0"], ["sl2forms.modules"],
     ["sl2forms.hypergeom", "sl2forms.omega", "sl2forms.verify"]),
    (["singular-vector", "2", "1", "1"], ["sl2forms.omega"],
     ["sl2forms.hypergeom", "sl2forms.verify"]),
    (["omega-table", "2", "1"], ["sl2forms.omega"],
     ["sl2forms.hypergeom", "sl2forms.verify"]),
    (["verify-star", "--max", "1"], ["sl2forms.verify"], []),
    (["verify-all", "--max", "1"], ["sl2forms.verify"], []),
], ids=["verify-km", "decompose", "singular-vector", "omega-table", "verify-star",
        "verify-all"])
def test_cold_run_loads_only_the_subcommands_layers(args, loaded, absent):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, *args],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout.splitlines()[-1]))
    assert set(loaded) <= modules
    assert not modules & set(absent + NEVER_LOADED)
