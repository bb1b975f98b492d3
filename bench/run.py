"""Outside-in benchmark of macfb: end-to-end metrics, or per-layer metrics
from a traced run.

Run from the repository root:

    python3 bench/run.py --workload horizon-wide --seed 0 --seconds 50 --trace 0

Workloads (see BENCHMARK.json for why each is there): horizon-wide and
dsaht-deep. Every input is generated from --seed.

One run measures closed-loop passes over the workload's calls for --seconds
seconds, single-threaded, then checks every result it got. A pass is one
back-to-back call of every instance. Before each pass a fixed calibration
round runs (see ``calibrate``); the times are scaled by how fast the shared
machine ran during the run, and the unscaled wall times are printed beside
them. With --trace 0 it prints the end-to-end metrics:

    run_s        median time of one pass, checks excluded
    solve_p50_s  geometric mean over the instances of each one's median
                 solve time
    setup_s      median over fresh interpreters of the time from launch to
                 the first timed call: imports, inputs, one tiny warm-up solve
    peak_rss_mb  peak resident memory of the benchmark process
    pass_rate    calls that returned and passed their check, over calls made
                 (1 - error_rate; error_rate itself is printed, and is 0 on
                 a correct build)

With --trace 1 the same loop runs untraced for half the time and traced
for the other half; then layers.py replays single layers, including
stationary-grid solves and one pass over the corpus. Spans go to
.bench_out/ when the run ends, and the per-layer metrics are printed, with
the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every check passed, 1 when a
check failed, and 2 when the benchmark could not run (for example outside
a checkout of the repository).
"""

import os

# one thread per process for every BLAS/OpenMP pool numpy might start
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import fcntl
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("horizon-wide", "dsaht-deep")
SETUP_LAUNCHES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start_s": time.perf_counter() - self._t0, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end_s"] = time.perf_counter() - self._t0


class NoTracer:
    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


# seconds of one calibration round on this kind of machine, at its usual speed
CALIBRATION_REF_S = 0.125
# solve times follow calibration times with this elasticity: a log-log fit of
# 28 runs over a 2x speed range gave 0.83 (horizon-wide) and 0.78 (dsaht-deep)
SPEED_ELASTICITY = 0.8


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter work and small numpy
    operations, the mix of the solvers' inner loops, using no macfb code.

    The machine is shared: over minutes its speed drifts by up to 2x. Rounds
    interleaved with the passes track that drift, and the end-to-end times
    are scaled by (CALIBRATION_REF_S / median round) ** SPEED_ELASTICITY, so
    that they compare the program rather than the neighbours' load.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    tables = [rng.dirichlet(np.ones(9)).reshape(3, 3) for _ in range(64)]
    kernel = rng.dirichlet(np.ones(3), size=(3, 3)).transpose(2, 0, 1).copy()
    idx = np.ix_(np.arange(3), np.array([0, 1, 1]), np.array([1, 0, 1]))
    t = time.perf_counter()
    for _ in range(80):
        for table in tables:
            lik = kernel[idx]
            pred = (lik * table[None]).sum(axis=(1, 2))
            pos = pred[pred > 0.0]
            float((pos * np.log(pos)).sum())
            post = lik[1] * table / float((lik[1] * table).sum())
            cells = {}
            for i in range(3):
                cells.setdefault(round(float(post[i, 0]), 3), []).append(i)
    return time.perf_counter() - t


@dataclass
class Measurement:
    passes: list = field(default_factory=list)  # wall seconds of each pass
    results: list = field(default_factory=list)  # (call, result or exception, seconds)
    calibration: list = field(default_factory=list)  # seconds of each calibrate() round

    @property
    def speed_scale(self) -> float:
        return (CALIBRATION_REF_S / statistics.median(self.calibration)) ** SPEED_ELASTICITY


def measure(calls, seconds: float, tracer) -> Measurement:
    """Closed-loop passes over ``calls`` until the next pass would overrun
    ``seconds``; always at least one pass."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        m.calibration.append(calibrate())
        t_pass = time.perf_counter()
        with tracer.span("pass", index=len(m.passes)):
            for call in calls:
                t = time.perf_counter()
                with tracer.span(call.label):
                    try:
                        out = call.run()
                    except Exception as exc:  # a failed call is counted, not fatal
                        out = exc
                m.results.append((call, out, time.perf_counter() - t))
        m.passes.append(time.perf_counter() - t_pass)
        if time.perf_counter() - start + statistics.median(m.passes) > seconds:
            return m


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def stamp() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, build the inputs and
    calls, run the tiny warm-up solve, then report when it was ready."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl.calls(wl.make_inputs(args.seed), Path(tmp))
        t2 = time.perf_counter()
        wl.warm_up(Path(tmp))
        ready = time.time()
    print(json.dumps({"ready": ready, "import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


def measure_setup(args) -> dict:
    """Median over fresh interpreters of launch-to-ready time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    runs = []
    for _ in range(SETUP_LAUNCHES):
        launched = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((doc["ready"] - launched, doc["import_s"], doc["inputs_s"]))
    return {key: statistics.median(r[i] for r in runs)
            for i, key in enumerate(("setup_s", "setup.import_s", "setup.inputs_s"))}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _verdicts(workloads, wl, args, results, tmp) -> tuple:
    """Check every result; returns (results, verdicts), with the untimed
    reference solve appended when the seed has no recorded optimum."""
    recorded = workloads.load_reference().get(wl.name, {})
    verdicts = workloads.check_results(
        results, recorded if args.seed == workloads.DEFAULT_SEED else None)
    ref_call = wl.calls(wl.make_inputs(workloads.DEFAULT_SEED), tmp)[0]
    if args.seed != workloads.DEFAULT_SEED and ref_call.value is not None:
        # re-solve the first default-seed instance, so that a policy that
        # evaluates consistently but is suboptimal still fails
        try:
            ref_results = [(ref_call, ref_call.run(), 0.0)]
        except Exception as exc:  # counted as a failed call
            ref_results = [(ref_call, exc, 0.0)]
        results = results + ref_results
        verdicts += workloads.check_results(ref_results, recorded)
    return results, verdicts


def _end_to_end(spec, timed, setup, peak_rss_mb, n_calls, attempted, failed) -> dict:
    by_label = {}
    for call, out, dt in timed.results:
        if not isinstance(out, Exception):
            by_label.setdefault(call.label, []).append(dt)
    samples = sum(by_label.values(), [])
    wall = {
        "run_s": statistics.median(timed.passes),
        # per instance its median time, then the geometric mean over them
        "solve_p50_s": statistics.geometric_mean(statistics.median(v) for v in by_label.values())
        if by_label else float("nan"),
        "setup_s": setup["setup_s"],
    }
    scale = timed.speed_scale
    values = {k: v * scale for k, v in wall.items()}
    values.update({"peak_rss_mb": peak_rss_mb, "pass_rate": 1.0 - failed / attempted})
    print(f"speed scale  {scale:.4f}   ({CALIBRATION_REF_S} s / median of "
          f"{len(timed.calibration)} calibration rounds) ** {SPEED_ELASTICITY}; "
          f"times below are scaled, wall in ()")
    print(f"run_s        {values['run_s']:.4f} s   ({wall['run_s']:.4f})  median of "
          f"{len(timed.passes)} passes of {n_calls} calls: "
          + " ".join(f"{p:.3f}" for p in timed.passes))
    print(f"solve_p50_s  {values['solve_p50_s']:.4f} s   ({wall['solve_p50_s']:.4f})  geometric "
          f"mean over {len(by_label)} calls of their medians; {len(samples)} samples")
    print(f"setup_s      {values['setup_s']:.4f} s   ({wall['setup_s']:.4f})  median of "
          f"{SETUP_LAUNCHES} launches")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"error_rate   {failed / attempted:.4g}   {failed} of {attempted} calls failed or raised")
    return {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}


def _per_layer(spec, per_layer, notes, setup, timed, plain) -> dict:
    per_layer["trace.overhead_s"] = statistics.median(timed.passes) - statistics.median(plain.passes)
    notes["trace.overhead_s"] = "measured: traced run_s minus untraced run_s, same run"
    for key in ("setup.import_s", "setup.inputs_s"):
        per_layer[key] = setup[key]
        notes[key] = f"measured: median over {SETUP_LAUNCHES} fresh interpreters"
    metrics = {}
    for m in spec["per_layer"]:
        notes.setdefault(m["name"], "not exercised by this workload")
        metrics[m["name"]] = _metric(per_layer.get(m["name"], 0.0), m["unit"])
        print(f"{m['name']:42s} {metrics[m['name']]['value']:<12.6g} {m['unit']:6s} "
              f"{notes[m['name']]}")
    return metrics


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = stamp()
    wl = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    print("# " + json.dumps({"run": run_id, **env}))

    tmp = Path(tempfile.mkdtemp(dir=OUT, prefix=run_id + "-"))
    try:
        inputs = wl.make_inputs(args.seed)
        setup = measure_setup(args)
        wl.warm_up(tmp)
        calls = wl.calls(inputs, tmp)
        if args.trace:
            plain = measure(calls, args.seconds / 2, NoTracer())
            tracer = Tracer(run_id)
            with tracer.span("run"):
                timed = measure(calls, args.seconds / 2, tracer)
        else:
            timed = measure(calls, args.seconds, NoTracer())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        results = list(timed.results)
        if args.trace:
            import layers
            import numpy as np

            with tracer.span("layers"):
                per_layer, notes, replayed = layers.collect(
                    wl.name, inputs, timed, tracer, np.random.default_rng(args.seed), args.seed,
                    tmp)
            results += plain.results + replayed
        results, verdicts = _verdicts(workloads, wl, args, results, tmp)
        failures = [f"{c.label}: {e}" for (c, _, _), errs in zip(results, verdicts) for e in errs]
        attempted, failed = len(results), sum(1 for errs in verdicts if errs)

        if args.trace:
            metrics = _per_layer(spec, per_layer, notes, setup, timed, plain)
            trace_path = OUT / f"trace_{run_id}.json"
            trace_path.write_text(json.dumps(
                {"stamp": env, "run": run_id, "inputs": inputs, "metrics": per_layer,
                 "notes": notes, "spans": tracer.spans, "failures": failures,
                 "passes": {"untraced": plain.passes, "traced": timed.passes}},
                indent=1, default=str))
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = _end_to_end(spec, timed, setup, peak_rss_mb, len(calls), attempted, failed)
        for f in failures:
            print(f"FAIL {f}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "macfb" / "__init__.py").is_file() or not (ROOT / "cases").is_dir():
        print(f"error: {ROOT} holds no macfb source tree (src/macfb, cases/)", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    # one workload process at a time, so runs never share the two cores
    with open(OUT / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return run(args)


if __name__ == "__main__":
    sys.exit(main())
