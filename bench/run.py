"""desarc benchmark: wall time of the real CLI on three (n, q) ladders, with
an exact-output gate, and a separate traced in-process run for per-layer
metrics.

    python3 bench/run.py --workload geometry-prime --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` it runs the workload's command chain as `python -m
desarc` subprocesses, one at a time, in a closed loop until `--seconds` have
passed, and reports the end-to-end metrics from each command's mean time,
rescaled to a fixed machine speed (see REF_S).
With `--trace 1` it runs the chain in-process twice, untraced then traced,
and reports the per-layer metrics of the traced pass.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = Path(__file__).resolve().parent / "pins.json"
SETUP_REPS_PER_PASS = 6
COMMAND_TIMEOUT_S = 150
CHILD_MEMORY_BYTES = 3 * 2 ** 30   # address-space cap per command process
MICRO_REPS = 3
# End-to-end times are rescaled to a fixed speed of the machine.  On a small
# shared host the CPU this benchmark runs on switches, for stretches of
# seconds to minutes, between a fast state and one up to about 1.8x slower,
# and a 40 s run may spend anywhere from none to all of its time in the
# slow one: unscaled class times of the same code then spread by 10-35 %
# over ten runs.  So the run is pinned to one CPU, `speed_gauge` is timed
# on it before every command, and every time is multiplied by REF_S / g,
# where g is the gauge's mean weighted by the duration of the command that
# follows it: its time-weighted mean over the run.  REF_S is about that
# mean on the machine the bounds were set on, so there scaled times read
# close to wall times; the unscaled ones go into the environment record.
GAUGE_MATRICES = 300
REF_S = 0.025

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "demo_s": "s", "verify_s": "s",
             "roundtrip_s": "s", "enumerate_s": "s", "count_rate": "1/s",
             "peak_rss_mb": "MB"}


# -- environment ---------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "click": importlib.metadata.version("click"),
        "cpu_model": cpu_model(),
        "loadavg_before": list(os.getloadavg()),
    }


# -- inputs ---------------------------------------------------------------------

def make_pair(n, q, rng):
    """JSON text of a seeded perspective pair, written by desarc.io."""
    from desarc.desargues import random_perspective_pair
    from desarc.field import GF
    from desarc.io import dumps, pair_to_json
    pair, vertex = random_perspective_pair(n, GF(*wl.FIELDS[q]), rng)
    return dumps(pair_to_json(pair, vertex))


def prepare(workload, workdir):
    for name, text in workload.inputs.items():
        (workdir / name).write_text(text)


# -- running commands --------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def run_subprocess(args, workdir, env):
    """Run `python -m desarc args` to completion; (seconds, rc, stderr, peak
    RSS in KiB).  A blocking wait4 returns as soon as the child exits; an
    alarm kills a child that outlives COMMAND_TIMEOUT_S."""
    err_path = workdir / ".stderr"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "desarc", *args], cwd=workdir,
                                env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_limit_memory)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, err_path.read_text(), usage.ru_maxrss


def run_inprocess(main, args, workdir):
    """Run the CLI in this interpreter, as `desarc args` would; (seconds, rc,
    stderr, 0): there is no child process to take a peak RSS from."""
    import click
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                main.main(args=list(args), prog_name="desarc", standalone_mode=False)
                rc = 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except click.ClickException as exc:
                exc.show()
                rc = exc.exit_code
            except Exception:  # an uncaught error exits 1 with a traceback, as a process would
                traceback.print_exc()
                rc = 1
            seconds = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return seconds, rc, err.getvalue(), 0


class Run(NamedTuple):
    """One execution of a command, checked as soon as it exited."""
    cmd: wl.Command
    seconds: float
    reason: str | None      # why it failed its check, or None
    count: int | None       # the raw count of a passing enumeration
    digest: str | None      # sha256 of the --out bytes of a pinned command
    rss_kib: int


def speed_gauge():
    """Seconds a fixed piece of pure-Python work takes: how fast this CPU
    runs code like the package's at the moment (see REF_S).  The work is
    the package's kind, row reduction of small matrices over GF(11), but
    shares no code with it, so a change to the package cannot move it."""
    t0 = time.perf_counter()
    p, x = 11, 12345
    for _ in range(GAUGE_MATRICES):
        rows = []
        for _ in range(6):
            row = []
            for _ in range(8):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                row.append(x % p)
            rows.append(row)
        r = 0
        for c in range(8):
            piv = next((i for i in range(r, 6) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [v * inv % p for v in rows[r]]
            for i in range(6):
                f = rows[i][c]
                if i != r and f:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
            r += 1
    return time.perf_counter() - t0


def run_pass(workload, workdir, runner, repeat=False, gauges=None):
    """One pass over the chain; (wall seconds, [Run]).  With `repeat` the
    pass makes rounds: round r runs, in chain order, every command with more
    than r `reps`, so a command's repeats spread over the pass and each finds
    the files of the commands before it.  With a `gauges` list the speed
    gauge is timed into it before every command."""
    for cmd in workload.commands:
        (workdir / cmd.out).unlink(missing_ok=True)
    runs = []
    t0 = time.perf_counter()
    for r in range(max(c.reps for c in workload.commands) if repeat else 1):
        for cmd in (c for c in workload.commands if c.reps > r):
            if gauges is not None:
                gauges.append(speed_gauge())
            seconds, rc, stderr, rss_kib = runner(cmd.args)
            runs.append(judge(cmd, seconds, rc, stderr, rss_kib, workdir))
    return time.perf_counter() - t0, runs


def judge(cmd, seconds, rc, stderr, rss_kib, workdir):
    """Apply the command's check to its exit code, stderr and --out file."""
    path = workdir / cmd.out
    data = path.read_bytes() if path.exists() else b""
    text = data.decode("utf-8", "replace")
    try:
        reason = cmd.check(rc, stderr, text)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        reason = f"malformed output: {type(exc).__name__}: {exc}"
    count = None
    if cmd.cls == "enumerate" and reason is None:
        count = json.loads(text)["raw_count"]
    digest = hashlib.sha256(data).hexdigest() if cmd.pinned else None
    return Run(cmd, seconds, reason, count, digest, rss_kib)


class Gate:
    """Exact-output gate: every execution passes its command's check, and a
    pinned output equals this seed's pinned digest when there is one, and
    else the command's first output in this run, byte for byte."""

    def __init__(self, pins):
        self.pins = pins
        self.first = {}      # command key -> digest of its first output
        self.attempted = 0
        self.failed = 0
        self.probes = {}     # probe key -> failure reason or None, last pass
        self.messages = []

    def add(self, runs, label):
        for run in runs:
            cmd = run.cmd
            if cmd.cls == "probe":
                self.probes[cmd.key] = run.reason
                continue
            self.attempted += 1
            reason = run.reason
            if run.digest is not None:
                pin = (self.pins or {}).get(cmd.key)
                first = self.first.setdefault(cmd.key, run.digest)
                want = pin or first
                if reason is None and want != run.digest:
                    reason = (f"sha256 {run.digest[:16]} differs from "
                              f"{'pin' if pin else 'first run'} {want[:16]}")
            if reason is not None:
                self.failed += 1
                self.messages.append(f"{label} {cmd.key}: {reason}")
        for key in (self.pins or {}):
            if key not in self.first:
                self.failed += 1
                self.first[key] = None
                self.messages.append(f"{label} {key}: pinned output missing")

    @property
    def correct(self):
        return self.failed == 0


def load_pins(workload, seed):
    if not PINS.exists():
        return None
    return json.loads(PINS.read_text()).get(workload, {}).get(str(seed))


# -- end-to-end run --------------------------------------------------------------------

def setup_code(workload):
    """A fresh interpreter's set-up: import desarc.cli, build the fields."""
    specs = [wl.FIELDS[q] for q in workload.fields]
    return ("import desarc.cli\nfrom desarc.field import GF\n"
            f"for p, k, m in {specs!r}:\n    GF(p, k, m)\n")


def time_setup(code, env, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(workload, workdir, seconds, gate):
    # one CPU for this process, the gauge and every child (see REF_S)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    code = setup_code(workload)
    time_setup(code, env, 1)    # untimed: warms the bytecode cache
    setup_times, gauges, runs, walls = [], [], [], []
    start = time.perf_counter()
    # whole passes, as many as fit in `seconds` judging by the last one; the
    # set-up starts are spread over the run, a few before each pass
    while True:
        setup_times += time_setup(code, env, SETUP_REPS_PER_PASS)
        wall, pass_runs = run_pass(workload, workdir,
                                   lambda args: run_subprocess(args, workdir, env),
                                   repeat=True, gauges=gauges)
        gate.add(pass_runs, f"pass {len(walls) + 1}")
        runs += pass_runs
        walls.append(wall)
        if time.perf_counter() - start + wall > seconds:
            break
    # each command's mean over its runs, summed per time class and over the
    # whole chain (probes of known defects excluded).  A mean, like the
    # gauge's: an execution in the slow state is not an outlier to drop but
    # time the gauge accounts for.
    cmd_s = {cmd.key: statistics.mean(r.seconds for r in runs if r.cmd.key == cmd.key)
             for cmd in workload.commands}
    raw = {f"{c}_s": sum(cmd_s[cmd.key] for cmd in workload.commands if cmd.cls == c)
           for c in wl.CLASSES}
    raw["wall_s"] = sum(raw.values())
    raw["setup_s"] = statistics.median(setup_times)
    gauge = sum(g * r.seconds for g, r in zip(gauges, runs)) / sum(r.seconds for r in runs)
    scale = REF_S / gauge
    metrics = {k: v * scale for k, v in raw.items()}
    counted = sum({r.cmd.key: r.count or 0 for r in runs if r.cmd.cls == "enumerate"}.values())
    metrics["count_rate"] = counted / metrics["enumerate_s"]
    metrics["peak_rss_mb"] = max(r.rss_kib for r in runs) / 1024
    return metrics, {"cpu": cpu, "passes": len(walls), "pass_wall_s": walls,
                     "gauge_s": gauge, "scale": scale,
                     "unscaled": raw, "command_s": {k: round(v, 4) for k, v in cmd_s.items()}}


# -- traced run ----------------------------------------------------------------------

def field_micro(seed):
    """Per order q: build time, and ns per mul and per inv on seeded elements."""
    from desarc.field import GF
    out = {}
    rng = random.Random(f"field/{seed}")
    for q in sorted(wl.FIELDS):
        spec = wl.FIELDS[q]
        builds = []
        for _ in range(MICRO_REPS):
            t0 = time.perf_counter()
            field = GF(*spec)
            builds.append(time.perf_counter() - t0)
        size = 20000 if q <= 64 or spec[1] == 1 else 1000
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(size)]
        mul, inv = field.mul, field.inv
        mul_ns, inv_ns = [], []
        for _ in range(MICRO_REPS):
            t0 = time.perf_counter()
            for a, b in pairs:
                mul(a, b)
            t1 = time.perf_counter()
            for _, b in pairs:
                inv(b)
            t2 = time.perf_counter()
            mul_ns.append((t1 - t0) / size * 1e9)
            inv_ns.append((t2 - t1) / size * 1e9)
        out[f"field.mul_ns.q{q}"] = (statistics.median(mul_ns), "ns")
        out[f"field.inv_ns.q{q}"] = (statistics.median(inv_ns), "ns")
        out[f"field.build_s.q{q}"] = (statistics.median(builds), "s")
    return out


SELF_TIMES = (
    "projlin.rref", "projlin.meet", "projlin.join", "desargues.lift_to_arc",
    "desargues.section_arc", "desargues.find_vertex", "desargues.edge_intersections",
    "desargues.axis_hyperplane", "desargues.tspace_intersections",
    "desargues.conway_lift_axis", "configuration.vertex_sweep",
    "configuration.verify_symbol_incidence", "configuration.substructure_counts",
    "configuration.triple_perspective_axis", "arcs.random_arc_off_hyperplane",
    "arcs.frame_off_hyperplane", "enumeration.run_job", "io.load_geometry",
    "io.dumps", "io.incidence_csv")
CALLS = ("projlin.rref", "projlin.nullspace", "projlin.meet", "projlin.join")


def traced(workload, workdir, seed, gate, spans_path):
    from desarc.cli import main
    from spans import Tracer

    def runner(args):
        return run_inprocess(main, args, workdir)

    untraced_wall, runs = run_pass(workload, workdir, runner)
    gate.add(runs, "untraced")
    tracer = Tracer()
    tracer.install(keep_results=("enumeration.run_job", "configuration.vertex_sweep"))
    try:
        traced_wall, runs = run_pass(workload, workdir, runner)
    finally:
        tracer.uninstall()
    gate.add(runs, "traced")
    out_bytes = sum((workdir / cmd.out).stat().st_size for cmd in workload.commands
                    if (workdir / cmd.out).exists())
    tracer.write(spans_path)

    totals = tracer.totals()

    def rec(name):
        return totals.get(name, (0, 0.0, 0.0))

    m = {"field.calls": (tracer.field_calls[0], "count")}
    m.update(field_micro(seed))
    for name in CALLS:
        m[f"{name}.calls"] = (rec(name)[0], "count")
    for name in SELF_TIMES:
        m[f"{name}.s"] = (rec(name)[2], "s")
    meets = rec("projlin.meet")[0]
    m["projlin.rref_per_meet"] = (
        tracer.count_within("projlin.rref", "projlin.meet") / meets if meets else 0.0, "ratio")
    m["projlin.points.yielded"] = (tracer.points_yielded[0], "count")
    batteries = rec("cli.pair_battery")[0]
    m["desargues.meets_per_battery"] = (
        tracer.count_within("projlin.meet", "cli.pair_battery") / batteries
        if batteries else 0.0, "count")

    nodes = raw = 0
    swept_failed = 0
    for idx, result in tracer.results:
        name = tracer.names[tracer.name[idx]]
        if name == "enumeration.run_job":
            nodes += result.nodes
            raw += result.raw_count
        else:
            swept_failed += result.total - result.passed
    job_s = rec("enumeration.run_job")[1]
    m["configuration.vertex_sweep.failed"] = (swept_failed, "count")
    m["enumeration.nodes"] = (nodes, "count")
    m["enumeration.nodes_per_s"] = (nodes / job_s if job_s else 0.0, "1/s")
    m["enumeration.yield"] = (raw / nodes if nodes else 0.0, "ratio")
    m["io.out_bytes"] = (out_bytes, "B")
    m["cli.self_s"] = (sum(v[2] for k, v in totals.items() if k.startswith("cli.")), "s")
    m["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    probes_failing = sum(1 for r in gate.probes.values() if r is not None)
    failing = sum(1 for r in runs if r.reason is not None)
    m["failed_ratio"] = (failing / len(runs), "ratio")
    m["defects.open"] = (probes_failing, "count")
    info = {"spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT)),
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return m, info


# -- pins --------------------------------------------------------------------------

def write_pins(seeds, names):
    """Record the sha256 of every pinned output for these seeds, from one
    in-process pass per workload and seed (enumerations are skipped)."""
    from desarc.cli import main
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    WORK.mkdir(exist_ok=True)
    for name in names:
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"pins-{name}-", dir=WORK))
            try:
                workload = wl.build(name, seed, make_pair)
                workload = wl.Workload(name, tuple(c for c in workload.commands if c.pinned),
                                       workload.inputs, workload.fields)
                prepare(workload, workdir)
                _, runs = run_pass(workload, workdir,
                                   lambda args: run_inprocess(main, args, workdir))
                bad = [f"{r.cmd.key}: {r.reason}" for r in runs if r.reason is not None]
                if bad:
                    sys.exit(f"{name} seed {seed} fails its checks: {bad}")
                pins.setdefault(name, {})[str(seed)] = {r.cmd.key: r.digest for r in runs}
                print(f"pinned {name} seed {seed}", file=sys.stderr)
            finally:
                shutil.rmtree(workdir)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# -- main --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", metavar="FIRST-LAST",
                    help="pin output digests for a seed range (of --workload, "
                         "or of all workloads), then exit")
    opts = ap.parse_args()
    if not (SRC / "desarc" / "cli.py").is_file():
        sys.exit(f"error: no desarc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    if opts.write_pins:
        first, last = (int(x) for x in opts.write_pins.split("-"))
        write_pins(range(first, last + 1),
                   [opts.workload] if opts.workload else wl.NAMES)
        return
    if opts.workload is None:
        ap.error("--workload is required")

    env = environment()
    workload = wl.build(opts.workload, opts.seed, make_pair)
    gate = Gate(load_pins(opts.workload, opts.seed))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{opts.workload}-{opts.seed}-", dir=WORK))
    try:
        prepare(workload, workdir)
        if opts.trace:
            spans_path = WORK / f"spans-{opts.workload}-{opts.seed}.tsv"
            values, info = traced(workload, workdir, opts.seed, gate, spans_path)
        else:
            raw, info = end_to_end(workload, workdir, opts.seconds, gate)
            values = {k: (v, E2E_UNITS[k]) for k, v in raw.items()}
    finally:
        shutil.rmtree(workdir)

    env["loadavg_after"] = list(os.getloadavg())
    env.update(info)
    env["pinned"] = gate.pins is not None
    env["probes"] = gate.probes
    for msg in gate.messages:
        print(f"gate: {msg}", file=sys.stderr)
    for name in sorted(values):
        value, unit = values[name]
        print(f"{name:42s} {value:>16.6g} {unit}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())},
    }))


if __name__ == "__main__":
    main()
