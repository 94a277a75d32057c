"""Self-test of the benchmark at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks that the gate's closed-form counts match known values, that the
gate accepts real CLI output and rejects doctored output, and that both
trace modes print every metric of BENCHMARK.json by name with its unit,
and that a count differing between traced runs stops the benchmark.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import gate
import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_counts() -> None:
    expect(gate.km_tuple_count(20) == 19481, "19,481 KM tuples at bound 20")
    expect(gate.series_tuple_count(20) == 12826, "12,826 series tuples at bound 20")
    checks = gate.expected_checks(14)
    expect((checks["relations"], checks["star-forms"], checks["decomposition"])
           == (240, 255, 225), f"verify-all check counts at bound 14: {checks}")


def doctor(stdout: str, edit) -> str:
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def check_gate(runner: run.Runner) -> None:
    q, r = run.draw_qr(random.Random(0))

    out = runner.run(["verify-all", "--max", "3", "--jobs", "1",
                      *run.qr_flags(q, r), "--format", "json"])
    expect(out.code == 0 and not gate.check_verify_all(out.stdout, 3, q, r),
           "gate accepts verify-all --max 3")
    for what, edit in (
        ("a check count off by one", lambda p: p["suites"][3].update(checks=p["suites"][3]["checks"] + 1)),
        ("a dropped suite", lambda p: p["suites"].pop()),
        ("a reported failure", lambda p: p["suites"][0]["failures"].append("x")),
        ("another q", lambda p: p.update(q="7")),
    ):
        expect(gate.check_verify_all(doctor(out.stdout, edit), 3, q, r) != [],
               f"gate rejects verify-all output with {what}")
    expect(gate.check_verify_all(out.stdout + out.stdout, 3, q, r) != [],
           "gate rejects two output lines")

    out = runner.run(["verify-km", "--max", "3", "--format", "json"])
    expect(out.code == 0 and not gate.check_km(out.stdout, 3), "gate accepts verify-km --max 3")
    expect(gate.check_km(doctor(out.stdout, lambda p: p.update(tuples=p["tuples"] - 1)), 3) != [],
           "gate rejects a KM tuple count off by one")

    out = runner.run(["omega-table", "4", "4", *run.qr_flags(q, r), "--format", "json"])
    expect(out.code == 0 and not gate.check_omega_table(out.stdout, 4, 4, q, r),
           "gate accepts omega-table 4 4")
    for what, edit in (
        ("a changed value", lambda p: p["rows"][2].update(value=str(Fraction(p["rows"][2]["value"]) + 1))),
        ("a flipped sign", lambda p: p["rows"][1].update(sign=-p["rows"][1]["sign"])),
        ("a dropped row", lambda p: p["rows"].pop()),
    ):
        expect(gate.check_omega_table(doctor(out.stdout, edit), 4, 4, q, r) != [],
               f"gate rejects omega-table output with {what}")

    out = runner.run(["verify-all", "--max", str(run.PROBE_MAX), "--jobs", "1",
                      "--debug-corrupt", "--format", "json"])
    expect(not gate.check_probe(out.code, out.stdout, run.PROBE_MAX),
           "probe accepts the --debug-corrupt run")
    expect(gate.check_probe(0, out.stdout, run.PROBE_MAX) != [], "probe rejects exit code 0")
    clean = runner.run(["verify-all", "--max", str(run.PROBE_MAX), "--jobs", "1",
                        "--format", "json"])
    expect(gate.check_probe(1, clean.stdout, run.PROBE_MAX) != [],
           "probe rejects a run where no suite fails")


def check_report(trace: int, units: dict[str, str]) -> None:
    """A full `--workload all` run at tiny sizes names every metric with its unit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "all", "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)])
    expect(code == 0, f"--trace {trace} run exits 0")
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"--trace {trace} run is correct: {result['correct']}, {result['failed']} failed")
    for wname in run.WORKLOADS:
        expect(any(line.startswith(f"{wname}.failure_ratio ") and line.endswith(" ratio")
                   for line in lines), f"{wname}.failure_ratio is printed")
        for name, unit in units.items():
            key = name if name == "setup_s" else f"{wname}.{name}"
            expect(result["metrics"].get(key, {}).get("unit") == unit,
                   f"{key} is in the result with unit {unit}")
            expect(any(line.startswith(key + " ") and f" {unit}" in line for line in lines[:-1]),
                   f"{key} is printed with unit {unit}")


def check_count_mismatch() -> None:
    """Traced runs whose counts differ give an error, not numbers."""
    real = run.tracer.layer_metrics
    calls = []

    def drifting(trace):
        values = real(trace)
        calls.append(1)
        values["linalg.kron.calls"] += len(calls)
        return values

    run.tracer.layer_metrics = drifting
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "large-module", "--seed", "1",
                             "--seconds", "0", "--trace", "1"])
    finally:
        run.tracer.layer_metrics = real
    expect(code != 0 and not buf.getvalue(),
           "a count differing between traced runs stops the benchmark without a result")


def main() -> int:
    run.SWEEP_MAX, run.KM_MAX, run.MODULE_SIZE = 3, 3, 4
    check_counts()
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.BENCH_DIR) as tmp:
        check_gate(run.Runner(Path(tmp)))
    e2e_units, layer_units = run.load_metrics()
    check_report(0, e2e_units)
    check_report(1, layer_units)
    check_count_mismatch()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
