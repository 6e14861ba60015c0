"""voablocks benchmark: four seeded closed-loop workloads and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one op at a time (a closed loop): each op starts after
the previous one finished and was checked against an independent oracle.
Each invocation is a fresh interpreter, so the library's module-level
caches start empty.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  See perfbench/WORKLOADS.md for the workloads,
the metrics and the known-defect invocations.

--trace 0 measures the end-to-end metrics: a few fresh child interpreters
play the same rounds one after another, so each op runs several times,
each time in the cache state its workload defines, seconds apart.  An
op's latency is the fastest of its executions; set-up is the median of
SETUPS children's set-up times.  Every timing is scaled to the host's full
speed by a probe timed around it.  The number of rounds follows from S and
the nominal time of a round (TIMED), so every run of a workload times the
same multiset of ops whatever the host's speed during the run.

--trace 1 reports the per-layer metrics: a fixed number of rounds runs
once untraced and twice traced, each in a fresh child interpreter; the
output digests of the three passes and the exact counters of the two
traced passes must agree.  A size sweep of single kernels follows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# workload -> (executions, nominal seconds per round): a timed run plays
# max(1, round(S / (executions * round_s))) rounds in each of `executions`
# fresh interpreters, which takes about S seconds on a 2-vCPU x86-64 VM.
# The rounds are counted, not timed, so that a slow spell of the host cannot
# change which ops a run times: op_tail_ms, a high order statistic, would
# move with their number.
TIMED = {"modes-cold": (3, 1.75), "series-kernels": (3, 1.65), "blocks-warm": (4, 0.75),
         "cli": (2, 3.5)}
# set-ups per timed run: the timed children's and those of children that set
# up and play no round; setup_s is their median
SETUPS = 7
# rounds per pass of the traced run (each pass is a fresh interpreter)
PASS_ROUNDS = {"modes-cold": 2, "series-kernels": 2, "blocks-warm": 3, "cli": 1}
CHILD_TIMEOUT_S = 45
TAIL_SAMPLES = 10
# The host's speed is read by a probe, a fixed loop of small Fraction and
# dict operations (the kind of work the library does), run before and after
# set-up and after every op.  The machine the benchmark was written on runs
# at one of two speeds about 2x apart, each held for seconds to minutes, and
# a slow spell can cover whole runs.  A timed interval is scaled by
# PROBE_REF_S over the faster of the two probes around it, so timings read
# as at the host's full speed, where the probe takes PROBE_REF_S; an
# interval is scaled down only if the host was slow when it began and when
# it ended.
PROBE_N = 1000
PROBE_REF_S = 0.003

# traced functions whose calls and self time are reported beside the layers
FUNCTIONS = ("series.series_mul", "series.series_comp_inverse", "series.reciprocal",
             "coordchange.extract_coeffs", "coordchange.U_apply", "linalg.solve_linear",
             "models.mode_apply", "virasoro.gbinom", "blocks.strong_residue_check",
             "blocks.hom_block", "sewing.torus_character", "odepole.formal_solve",
             "odepole.numeric_continue", "jsonio.dumps")


def host_probe() -> float:
    """Seconds for the probe loop."""
    t0 = perf_counter()
    acc: dict = {}
    for i in range(PROBE_N):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 - 3, 1 + i % 4)
    return perf_counter() - t0


def at_full_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REF_S / min(probe_before, probe_after)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_python(code: str):
    # capture_output makes run() wait on the pipes; with a timeout and no
    # pipes it would poll the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)


def _pass(args, rounds: int, traced=0, tag="") -> dict:
    """Run ``role_pass`` in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--role", "pass", "--rounds", str(rounds), "--traced", str(traced),
           "--pass-tag", tag]
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S + args.seconds)
        except BaseException:
            # SIGTERM lets the child stop its own children and clean up
            proc.terminate()
            try:
                proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"pass child failed ({proc.returncode}):\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one workload in this process


class Workload:
    """Set-up and op execution for one workload; ``tracer`` is optional."""

    def __init__(self, name: str, seed: int, tracer=None, cli_bootstrap=None):
        import gen

        self.name = name
        self.plan = gen.Plan(name, seed)
        self.tracer = tracer
        self.cli_bootstrap = cli_bootstrap
        self.session = None
        self.cli = None
        self.workdir = None
        self.first_round: list = []

    def setup(self):
        """Import, input generation and session build: what setup_s times."""
        if self.name == "cli":
            import cliops

            self.workdir = WORK / str(os.getpid())
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.cli = cliops.CliRunner(_env(), self.workdir, self.cli_bootstrap)
            self.first_round = self.plan.round(0)
            # a CLI user pays for the package import on every command
            _run_python("import voablocks.cli")
        else:
            import ops

            self.first_round = self.plan.round(0)
            self.session = ops.Session(self.name, self.plan.session)

    def rounds(self):
        """Round 0, generated during set-up, then rounds 1, 2, ..."""
        yield self.first_round
        r = 1
        while True:
            yield self.plan.round(r)
            r += 1

    def execute(self, op):
        """Returns (latency_s, passed, known_defect or None, canonical text)."""
        if self.cli is not None:
            return self.cli.execute(op.params)
        import ops

        run, check = ops.RUNNERS[op.kind]
        t0 = perf_counter()
        try:
            out = run(self.session, op.params)
        except Exception as e:  # a raising op is a failed op, not a dead run
            latency = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return latency, False, None, f"raised {type(e).__name__}: {e}"
        latency = perf_counter() - t0
        passed, text = check(op.params, out)
        return latency, passed, None, text

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:  # another run still uses it
                pass


class Tally:
    """Outcomes of the ops of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.passed: list[bool] = []
        self.ok = 0
        self.known: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.digest = hashlib.sha256()

    def add(self, op, latency, passed, known, text):
        self.latencies.append(latency)
        self.passed.append(passed)
        self.digest.update(f"{op.kind}|{text}\n".encode())
        if passed:
            self.ok += 1
        elif known:
            self.known[known] = self.known.get(known, 0) + 1
        else:
            self.unexpected.append(f"{op.kind} {op.params.get('name', '')}: {text[:200]}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def run_rounds(wl: Workload, tally: Tally, rounds: int, probes: list):
    """Closed loop over ``rounds`` whole rounds, with a host probe after
    each op."""
    op_id = 0
    for ops_of_round in islice(wl.rounds(), rounds):
        for op in ops_of_round:
            op_id += 1
            if wl.tracer is not None:
                wl.tracer.begin_op(op_id)
            tally.add(op, *wl.execute(op))
            probes.append(host_probe())


# ---------------------------------------------------------------------------
# child roles


def role_pass(args):
    """Set up, run ``--rounds`` rounds, traced or not, and report the
    outcome and per-op latencies."""
    tracer = bootstrap = None
    spans_dir = OUT / f"{args.workload}-{args.seed}"
    if args.traced and args.workload == "cli":
        # each CLI command traces itself and leaves stats-*.json in the workdir
        bootstrap = [str(HERE / "clitrace.py"), "--spans", str(spans_dir / args.pass_tag)]
    elif args.traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    probes = [host_probe()]
    t0 = perf_counter()
    wl = Workload(args.workload, args.seed, tracer, bootstrap)
    tally = Tally()
    try:
        wl.setup()
        setup_s = perf_counter() - t0
        probes.append(host_probe())
        if tracer is not None:
            tracer.end_setup()
        run_rounds(wl, tally, args.rounds, probes)
        summaries = []
        if wl.cli is not None and args.traced:
            for path in sorted(wl.workdir.glob("stats-*.json")):
                summaries.append(json.loads(path.read_text()))
        elif tracer is not None:
            summaries.append(tracer.summary())
            tracer.write_spans(spans_dir / f"{args.pass_tag}.spans")
    finally:
        wl.close()
    # a CLI user's memory is that of the largest command, not of this client
    who = resource.RUSAGE_CHILDREN if wl.cli is not None else resource.RUSAGE_SELF
    print(json.dumps({"digest": tally.digest.hexdigest(), "attempted": tally.attempted,
                      "ok": tally.ok, "known": tally.known, "unexpected": tally.unexpected,
                      "setup_s": setup_s, "op_s": sum(tally.latencies),
                      "probes": probes,
                      "latencies": tally.latencies, "passed": tally.passed,
                      "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                      "summaries": summaries}))


# ---------------------------------------------------------------------------
# the two kinds of run


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _result(correct, attempted, failed, values: dict, declared: list) -> str:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def timed_run(args):
    declared = _declared()["end_to_end"]
    executions, round_s = TIMED[args.workload]
    rounds = max(1, round(args.seconds / (executions * round_s)))
    passes = [_pass(args, rounds) for _ in range(executions)]
    everyone = passes + [_pass(args, 0) for _ in range(SETUPS - executions)]
    n = len(passes[0]["latencies"])
    # probes[0] and probes[1] bracket the set-up, probes[i + 1] and
    # probes[i + 2] op i
    setups = [at_full_speed(p["setup_s"], *p["probes"][:2]) for p in everyone]
    lat = sorted(min(at_full_speed(p["latencies"][i], *p["probes"][i + 1:i + 3]) for p in passes)
                 for i in range(n))
    raw = sorted(min(p["latencies"][i] for p in passes) for i in range(n))
    raw_setup = statistics.median(p["setup_s"] for p in everyone)
    probe_ms = statistics.median(x for p in everyone for x in p["probes"]) * 1000
    ok = sum(all(p["passed"][i] for p in passes) for i in range(n))
    attempted = sum(p["attempted"] for p in passes)
    failed = attempted - sum(p["ok"] for p in passes)
    unexpected = [u for p in passes for u in p["unexpected"]]
    if len({p["digest"] for p in passes}) > 1:
        unexpected.append("an op printed different outputs in two executions")
    known = {}
    for p in passes:
        for k, c in p["known"].items():
            known[k] = known.get(k, 0) + c
    peak_rss_mb = max(p["peak_rss_mb"] for p in passes)
    tail_idx = max(n - TAIL_SAMPLES - 1, 0)
    op_time = sum(lat)
    values = {"ops_per_s": ok / op_time, "op_p50_ms": statistics.median(lat) * 1000,
              "op_tail_ms": lat[tail_idx] * 1000, "setup_s": statistics.median(setups),
              "peak_rss_mb": peak_rss_mb}
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, {rounds} rounds, "
          f"{n} ops, each run in {executions} fresh interpreters; {attempted} executions, "
          f"{failed} failed")
    print(f"  ops_per_s        {values['ops_per_s']:.4f} 1/s  "
          f"({ok} correct ops in {op_time:.3f} s of op time)")
    print(f"  op_p50_ms        {values['op_p50_ms']:.3f} ms  (n={n})")
    print(f"  op_tail_ms       {values['op_tail_ms']:.3f} ms  "
          f"(p{100 * (tail_idx + 1) / n:.1f}, {n - tail_idx - 1} samples above, n={n})")
    print(f"  ops_failed_ratio {failed / attempted:.4f} ratio  ({failed}/{attempted}; "
          f"known defects: {known or 'none'})")
    print(f"  setup_s          {values['setup_s']:.4f} s  "
          f"(median of {len(setups)}: {', '.join(f'{s:.3f}' for s in setups)})")
    print(f"  peak_rss_mb      {peak_rss_mb:.1f} MB  "
          f"({'largest CLI command' if args.workload == 'cli' else 'largest workload process'})")
    print(f"  timings above are at full host speed; as measured: ops_per_s "
          f"{ok / sum(raw):.4f}, op_p50_ms {statistics.median(raw) * 1000:.3f}, op_tail_ms "
          f"{raw[tail_idx] * 1000:.3f}, setup_s {raw_setup:.4f}; median probe {probe_ms:.3f} ms "
          f"against {PROBE_REF_S * 1000:g} ms at full speed")
    for line in unexpected:
        print(f"  UNEXPECTED FAILURE {line}")
    print(_result(not unexpected, attempted, failed, values, declared))


def _exact_counters(summary: dict) -> dict:
    out = {f"{name}.calls": calls for name, (calls, _) in summary["fn"].items()}
    out.update({f"{layer}.raised": n for layer, n in summary["raised"].items()})
    for key in ("mode_apply_repeats", "strong_residue_repeats", "strong_residue_passed",
                "solve_linear_cells"):
        out[key] = summary[key]
    return out


def layer_metrics(summary: dict, op_time_s: float) -> dict:
    import layertrace

    fn = summary["fn"]
    values = {}
    for layer in layertrace.LAYERS:
        mine = [v for name, v in fn.items() if name.split(".")[0] == layer]
        self_ms = sum(v[1] for v in mine) * 1000
        values[f"{layer}.calls"] = sum(v[0] for v in mine)
        values[f"{layer}.self_ms"] = self_ms
        values[f"{layer}.share"] = self_ms / 1000 / op_time_s
        values[f"{layer}.raised"] = summary["raised"][layer]
    for name in FUNCTIONS:
        calls, self_s = fn.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = self_s * 1000

    def ratio(a, b):
        return a / b if b else 0.0

    values["linalg.solve_linear.cells"] = summary["solve_linear_cells"]
    values["models.mode_apply.repeat_ratio"] = ratio(summary["mode_apply_repeats"],
                                                     values["models.mode_apply.calls"])
    src_calls = values["blocks.strong_residue_check.calls"]
    values["blocks.strong_residue_check.repeat_ratio"] = ratio(
        summary["strong_residue_repeats"], src_calls)
    values["blocks.strong_residue_check.pass_ratio"] = ratio(
        summary["strong_residue_passed"], src_calls)
    return values


def cli_import_ms(reps=5) -> float:
    """Median time of ``import voablocks.cli`` minus an empty interpreter."""
    def median_s(code):
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            _run_python(code)
            times.append(perf_counter() - t0)
        return statistics.median(times)
    return (median_s("import voablocks.cli") - median_s("pass")) * 1000


def traced_run(args):
    import layertrace
    import sweep

    declared = _declared()["per_layer"]
    spans_dir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    rounds = PASS_ROUNDS[args.workload]
    plain = _pass(args, rounds, 0, "plain")
    a = _pass(args, rounds, 1, "traced-a")
    b = _pass(args, rounds, 1, "traced-b")
    sa, sb = layertrace.merge(a["summaries"]), layertrace.merge(b["summaries"])
    problems = [f"unexpected failure: {u}" for u in plain["unexpected"] + a["unexpected"]]
    if not plain["digest"] == a["digest"] == b["digest"]:
        problems.append("traced and untraced passes produced different outputs")
    ca, cb = _exact_counters(sa), _exact_counters(sb)
    diff = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
    if diff:
        problems.append(f"exact counters differ between two traced passes: {diff[:10]}")
    values = layer_metrics(sa, a["op_s"])
    values["trace.overhead_ratio"] = (a["ok"] / a["op_s"]) / (plain["ok"] / plain["op_s"])
    values["cli.import_ms"] = cli_import_ms()
    sweep_values, rows, sweep_failures = sweep.run_sweep(args.seed)
    values.update(sweep_values)
    problems += [f"wrong result: {f}" for f in sweep_failures]

    print(f"traced run of {args.workload}, seed {args.seed}: {PASS_ROUNDS[args.workload]} "
          f"rounds per pass, {a['attempted']} ops, {sa['spans']} spans per traced pass "
          f"(written to {spans_dir.relative_to(ROOT)})")
    print(f"  op time untraced {plain['op_s']:.3f} s, traced {a['op_s']:.3f} s, "
          f"set-up {a['setup_s']:.3f} s; trace.overhead_ratio "
          f"{values['trace.overhead_ratio']:.3f}")
    print("  layer          calls      self_ms   share  raised")
    for layer in layertrace.LAYERS:
        print(f"  {layer:12s} {values[f'{layer}.calls']:8d} {values[f'{layer}.self_ms']:11.1f} "
              f"{values[f'{layer}.share']:7.3f} {values[f'{layer}.raised']:6d}")
    print("  sweep: kernel, size, ms here, ms at the ROADMAP re-anchor")
    for name, size, ms, ref in rows:
        print(f"    {name:24s} {size:3d} {ms:9.1f} {ref:6d}")
    for p in problems:
        print(f"  CHECK FAILED {p}")
    print(_result(not problems, a["attempted"], a["attempted"] - a["ok"], values, declared))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("main", "pass"), default="main", help=argparse.SUPPRESS)
    p.add_argument("--rounds", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--pass-tag", default="", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps its child
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.role == "main" and hasattr(os, "sched_setaffinity"):
        # one CPU for this process and every child it starts: the probes
        # then read the speed of the CPU that a CLI command runs on
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:  # not allowed here: the probes still read the client's CPU
            pass
    if not (SRC / "voablocks" / "__init__.py").is_file():
        print(f"error: no voablocks sources under {SRC}", file=sys.stderr)
        return 2
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {gen.WORKLOADS}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.role == "pass":
        role_pass(args)
    elif args.trace:
        traced_run(args)
    else:
        timed_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
