"""End-to-end benchmark of the sl2forms command-line verifier.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Every timed run is a fresh `python -m sl2forms ...` process, because that is
what a user pays for each verdict: interpreter start, import, and cold
`lru_cache`s.  Each run's output is checked against expectations computed
in `gate.py`; a run that fails the check, exits nonzero or prints
unparseable JSON counts as failed.  Once per invocation, untimed, a
`--debug-corrupt` probe must exit 1 with exactly the relations suite
failing, or the benchmark stops with an error.

With `--trace 0` the last stdout line holds the end-to-end metrics named
in BENCHMARK.json; with `--trace 1` it holds the per-layer metrics, taken
from traced runs (see `tracer.py`).  `--workload all` runs every workload
and prefixes each metric with the workload name.  The lines before the
last one are a readable report and the run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gate
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Sizes chosen so that one run takes about 2-4 s on a 2-CPU x86 machine
# with Python 3.11, giving several repetitions per measured interval, while
# keeping each workload's layer split (see BENCHMARK.json).
SWEEP_MAX = 12
KM_MAX = 16
MODULE_SIZE = 40
PROBE_MAX = 4

SETUP_REPS = 15         # fresh `decompose 0 0` processes timed per invocation
MIN_REPS = 3            # workload runs per invocation, even past --seconds
MIN_TRACED = 2          # traced runs per invocation, for the exact-count check
RUN_TIMEOUT_S = 120     # a single CLI process is killed after this long
SETUP_OUTPUT = "V0⊗V0 = V0 (dim 1 ✓)\n"


class BenchmarkError(Exception):
    """The benchmark cannot produce trustworthy numbers."""


@dataclass(frozen=True)
class Run:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr_tail: str


def draw_qr(rng: random.Random) -> tuple[Fraction, Fraction]:
    """q and r, each ±p/d with p in 2..9 and d in 1..9, never ±1, and of
    opposite signs.

    Both choices fix which path `rank` takes, so every draw does the same
    amount of work.  q = r = 1 takes a cheaper path.  The Gram matrix of a
    tensor form is q·r times a permutation, so its pivots all have the sign
    of q·r: when q·r > 0 the Bareiss rescale of the rows below each pivot
    is skipped, and star-forms takes about half as long as when q·r < 0.
    The draw keeps q·r < 0, the path a general matrix takes.
    """
    def magnitude() -> Fraction:
        while True:
            value = Fraction(rng.randint(2, 9), rng.randint(1, 9))
            if value != 1:
                return value

    sign = rng.choice((1, -1))
    return sign * magnitude(), -sign * magnitude()


def qr_flags(q: Fraction, r: Fraction) -> list[str]:
    return [f"--q={q}", f"--r={r}"]


def sweep_argv(q, r):
    return ["verify-all", "--max", str(SWEEP_MAX), "--jobs", "1",
            *qr_flags(q, r), "--format", "json"]


def sweep_pool_argv(q, r):
    # No --jobs flag: this measures the CLI default, whatever it becomes.
    return ["verify-all", "--max", str(SWEEP_MAX), *qr_flags(q, r), "--format", "json"]


def km_argv(q, r):
    return ["verify-km", "--max", str(KM_MAX), "--format", "json"]


def module_argv(q, r):
    return ["omega-table", str(MODULE_SIZE), str(MODULE_SIZE),
            *qr_flags(q, r), "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[Fraction, Fraction], list[str]]
    check: Callable[[str, Fraction, Fraction], list[str]]  # problems; empty if right
    uses_qr: bool = True


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep", sweep_argv,
                 lambda out, q, r: gate.check_verify_all(out, SWEEP_MAX, q, r)),
        Workload("sweep-pool", sweep_pool_argv,
                 lambda out, q, r: gate.check_verify_all(out, SWEEP_MAX, q, r)),
        Workload("km", km_argv, lambda out, q, r: gate.check_km(out, KM_MAX),
                 uses_qr=False),
        Workload("large-module", module_argv,
                 lambda out, q, r: gate.check_omega_table(
                     out, MODULE_SIZE, MODULE_SIZE, q, r)),
    )
}


class Runner:
    """Starts CLI processes in a scratch directory inside the checkout."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.count = 0

    def run(self, args: list[str], trace_out: Path | None = None,
            run_id: str = "") -> Run:
        """One fresh process; wall is spawn to exit, CPU and RSS from wait4."""
        self.count += 1
        out_path = self.workdir / f"stdout-{self.count}"
        err_path = self.workdir / f"stderr-{self.count}"
        if trace_out is None:
            argv = [sys.executable, "-m", "sl2forms", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_out),
                    run_id, "--", *args]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions,
                             setpgroup=0)
        try:
            _, status, usage = _wait_with_timeout(pid, RUN_TIMEOUT_S)
        finally:
            _reap_group(pid)
        wall = time.perf_counter() - t0
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace").strip().splitlines()
        out_path.unlink()
        err_path.unlink()
        return Run(
            code=os.waitstatus_to_exitcode(status),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            # Linux reports KiB; wait4 gives the largest single process of the
            # tree (the CLI or one of its pool workers), not their sum.
            peak_rss_mb=usage.ru_maxrss / 1024,
            stdout=stdout,
            stderr_tail=stderr[-1] if stderr else "",
        )


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _wait_with_timeout(pid: int, timeout: int):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(timeout)
    try:
        return os.wait4(pid, 0)
    except _Timeout:
        os.killpg(pid, signal.SIGKILL)
        return os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _reap_group(pgid: int) -> None:
    """Kill what is left of the run's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def summarize(values: list[float]) -> tuple[float, str, float]:
    """Median plus the highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies and the maximum is
    given instead.
    """
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return statistics.median(values), f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return statistics.median(values), "max", max(values)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def src_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sl2forms").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def probe(runner: Runner) -> None:
    """The failure-detection probe; raises unless the corruption is caught."""
    run = runner.run(["verify-all", "--max", str(PROBE_MAX), "--jobs", "1",
                      "--debug-corrupt", "--format", "json"])
    problems = gate.check_probe(run.code, run.stdout, PROBE_MAX)
    if problems:
        raise BenchmarkError("corruption probe: " + "; ".join(problems))


class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, run: Run, problems: list[str]) -> bool:
        self.attempted += 1
        if run.code != 0:
            problems = [f"exit code {run.code} ({run.stderr_tail})"] + problems
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            print(f"# FAILED {label}: " + "; ".join(problems), file=sys.stderr)
        return not problems


def measure_setup(runner: Runner, tally: Tally) -> list[float]:
    walls = []
    for i in range(SETUP_REPS):
        run = runner.run(["decompose", "0", "0"])
        problems = [] if run.stdout == SETUP_OUTPUT else ["unexpected output"]
        if tally.record(f"setup {i}", run, problems):
            walls.append(run.wall_s)
    return walls


def measure_workload(runner: Runner, tally: Tally, w: Workload, rng: random.Random,
                     seconds: float, inputs: list) -> dict[str, list[float]]:
    """Untraced runs, each with a fresh (q, r) draw, until another would end
    past `seconds`."""
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    t0 = time.perf_counter()
    rep, last = 0, 0.0
    while rep < MIN_REPS or time.perf_counter() - t0 + last <= seconds:
        t_rep = time.perf_counter()
        q, r = draw_qr(rng)
        inputs.append([str(q), str(r)] if w.uses_qr else None)
        run = runner.run(w.argv(q, r))
        if tally.record(f"{w.name} run {rep}", run, w.check(run.stdout, q, r)):
            samples["wall_s"].append(run.wall_s)
            samples["cpu_s"].append(run.cpu_s)
            samples["peak_rss_mb"].append(run.peak_rss_mb)
        rep += 1
        last = time.perf_counter() - t_rep
    return samples


def is_exact(name: str, unit: str) -> bool:
    """Metrics that count work; they must repeat exactly between traced runs."""
    return unit != "s" and name != "trace.overhead"


def measure_traced(runner: Runner, tally: Tally, w: Workload, rng: random.Random,
                   seconds: float, inputs: list, layer_units: dict[str, str],
                   seed: int) -> dict[str, float]:
    """Alternate untraced and traced runs of one (q, r) until another would
    end past `seconds`.

    Count metrics must agree exactly between all traced runs; times are
    medians over the traced runs.
    """
    q, r = draw_qr(rng)
    inputs.append([str(q), str(r)] if w.uses_qr else None)
    args = w.argv(q, r)
    plain, traced, walls_traced = [], [], []
    t0 = time.perf_counter()
    schedule, kind, last = ["plain", "traced", "traced"], "", 0.0
    while schedule or time.perf_counter() - t0 + last <= seconds:
        t_rep = time.perf_counter()
        kind = schedule.pop(0) if schedule else ("traced" if kind == "plain" else "plain")
        label = f"{w.name} {kind} run {len(plain) + len(traced)}"
        if kind == "plain":
            run = runner.run(args)
            if tally.record(label, run, w.check(run.stdout, q, r)):
                plain.append(run.wall_s)
            last = time.perf_counter() - t_rep
            continue
        out = runner.workdir / f"trace-{runner.count + 1}.json"
        run = runner.run(args, trace_out=out, run_id=f"{w.name}-seed{seed}-{len(traced)}")
        ok = tally.record(label, run, w.check(run.stdout, q, r))
        if ok:
            traced.append(tracer.layer_metrics(json.loads(out.read_text())))
            walls_traced.append(run.wall_s)
        out.unlink(missing_ok=True)
        last = time.perf_counter() - t_rep
    if len(traced) < MIN_TRACED or not plain:
        raise BenchmarkError(f"{w.name}: too few successful runs to trace")
    metrics = {}
    for name, unit in layer_units.items():
        if name == "trace.overhead":
            continue
        values = [t[name] for t in traced]
        if is_exact(name, unit):
            if len(set(values)) != 1:
                raise BenchmarkError(f"{w.name}: count {name} differs between "
                                     f"traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead"] = statistics.median(walls_traced) / statistics.median(plain)
    return metrics


def report_line(name: str, values: list[float], unit: str, note: str = "") -> str:
    median, tail_name, tail = summarize(values)
    return (f"{name:<28} median {median:.4f} {unit}  {tail_name} {tail:.4f} {unit}"
            f"  n={len(values)}{note}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sl2forms" / "cli.py").is_file():
        print(f"error: no sl2forms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metrics()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = {
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min": os.getloadavg()[0], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": {"sweep_max": SWEEP_MAX, "km_max": KM_MAX, "module": MODULE_SIZE},
        "inputs": {}, "samples": {},
    }
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        runner = Runner(workdir)
        probe(runner)
        metrics: dict[str, dict] = {}
        lines, tallies = [], []
        prefix = (lambda w, m: f"{w}.{m}") if args.workload == "all" else (lambda w, m: m)
        if args.trace == 0:
            tallies.append(Tally())
            setup = measure_setup(runner, tallies[-1])
            if not setup:
                raise BenchmarkError("every setup run failed")
            lines.append(report_line("setup_s", setup, "s"))
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": e2e_units["setup_s"]}
            meta["samples"]["setup_s"] = [round(v, 4) for v in setup]
        for wname in names:
            w = WORKLOADS[wname]
            rng = random.Random(f"{wname}:{args.seed}")
            inputs = meta["inputs"].setdefault(wname, [])
            tally = Tally()
            tallies.append(tally)
            if args.trace == 0:
                samples = measure_workload(runner, tally, w, rng, args.seconds, inputs)
                if not samples["wall_s"]:
                    raise BenchmarkError(f"{wname}: every run failed")
                for name, values in samples.items():
                    note = ("  (largest single process, not the sum over workers)"
                            if name == "peak_rss_mb" and wname == "sweep-pool" else "")
                    lines.append(report_line(prefix(wname, name), values,
                                             e2e_units[name], note))
                    metrics[prefix(wname, name)] = {"value": statistics.median(values),
                                                    "unit": e2e_units[name]}
                    meta["samples"][prefix(wname, name)] = [round(v, 4) for v in values]
            else:
                values = measure_traced(runner, tally, w, rng, args.seconds, inputs,
                                        layer_units, args.seed)
                for name, value in values.items():
                    lines.append(f"{prefix(wname, name):<44} {value:.6g} {layer_units[name]}")
                    metrics[prefix(wname, name)] = {"value": value, "unit": layer_units[name]}
            failed = len(tally.failures)
            lines.append(f"{prefix(wname, 'failure_ratio'):<28} {failed}/{tally.attempted}"
                         f" = {failed / tally.attempted:.4f} ratio")
            if not w.uses_qr:
                meta["inputs"][wname] = "seed unused: this workload takes no q or r"
        attempted = sum(t.attempted for t in tallies)
        failed = sum(len(t.failures) for t in tallies)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# sl2forms benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# meta " + json.dumps(meta, separators=(",", ":")))
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
