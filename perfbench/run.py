"""torusflow benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --write-reference            # refresh reference.json

Each workload runs in its own fresh process as a closed loop with one client:
the next request is sent only after the previous library call has returned,
as a CLI user waits for each command.  The loop runs until the requests have
taken `--seconds` of wall time and at least MIN_REQUESTS have completed, so
the p90 always has ten samples beyond it.  Every output is checked by the
workload's oracle after its request, outside the timed interval.

`--trace 0` prints the end-to-end metrics, measured with tracing off.
`ok_frac` is the share of requests that neither raised nor failed their
oracle.  The 2-CPU machine the bounds were set on is shared, and its speed
drifts by up to 1.6x within minutes (one workload's median latency read
0.11 s and 0.17 s a few minutes apart).  So a machine-speed probe that does
not call torusflow (see Probe) runs before every request and before every
set-up process, and the timing metrics are scaled by PROBE_NOMINAL_S over the
median probe time: they read in seconds on a machine where the probe takes
PROBE_NOMINAL_S.  A change to torusflow moves them in proportion to raw time,
while machine drift largely cancels.  The raw times are printed alongside.

`--trace 1` wraps every public callable of the six layers (see tracing.py),
serves a fixed number of requests so that work counts repeat exactly, and
prints per-layer self time, calls, errors and work counts, plus diagnostics:
tracing overhead (the first requests are also served untraced, in alternating
order), span coverage of request time, CPU per wall second, the deviation of
outputs from reference.json, and source lines per layer.

The harness is a plain `perf_counter` closed loop rather than
pytest-benchmark: pytest-benchmark's calibrated repeat loop times one call
many times, so it cannot give per-request percentiles over a seeded stream
of distinct requests, and its `.benchmarks/` store does not exist here.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Artifacts and span dumps go
to `.perfbench_out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("flow", "boxsup", "lattice3d", "audit")
DEFAULT_SEED = 1
MIN_REQUESTS = 100     # p90 needs ten samples beyond it
TRACE_REQUESTS = 100   # fixed, so traced work counts repeat exactly
OVERHEAD_REQUESTS = 40 # also served untraced to measure tracing overhead
SETUP_REPEATS = 5      # set-up is measured in this many fresh processes
REFERENCE_REQUESTS = 32  # default-seed requests per workload kept in reference.json
PROBE_NOMINAL_S = 1.25e-3  # probe median on the 2-CPU x86_64 tuning machine

END_TO_END = (
    ("setup_s", "s"),
    ("request_s.p50", "s"),
    ("request_s.p90", "s"),
    ("requests_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_per_s"):
        return name.rsplit(".", 1)[1][:-len("_per_s")] + "/s"
    if name.endswith("lines"):
        return "lines"
    if name.startswith(("trace.", "process.", "outputs.")):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    from tracing import COUNT_NAMES, GROUPS, LAYERS, RATES

    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.errors",
                  f"{layer}.src_lines"]
    names += [f"{g}.self_s" for g in GROUPS]
    names += list(COUNT_NAMES) + [r[0] for r in RATES]
    names += ["support.src_lines", "src.lines", "trace.overhead_frac", "trace.coverage",
              "process.cpu_per_wall", "outputs.max_rel_dev"]
    return names


# ---------------------------------------------------------------------------
# environment and library loading
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """One BLAS thread: the load is one client thread, and idle OpenBLAS
    helper threads spin on the second core, which measured slower (trace
    requests +10%) and noisier than a single thread on a 2-CPU machine."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(1, nproc()))


def load_library():
    """Import torusflow from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import torusflow
    from torusflow import algebraic, cli, diophantine, engine, fourier, geometry

    if src.resolve() not in Path(torusflow.__file__).resolve().parents:
        raise SystemExit(f"torusflow imported from {torusflow.__file__}, not {src}")
    return types.SimpleNamespace(algebraic=algebraic, geometry=geometry, engine=engine,
                                 fourier=fourier, diophantine=diophantine, cli=cli)


def environment() -> dict:
    import mpmath
    import numpy

    return {"nproc": nproc(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine()}


def src_lines() -> dict[str, int]:
    from tracing import LAYERS

    out = {f"{layer}.src_lines": 0 for layer in LAYERS}
    out["support.src_lines"] = 0
    for path in sorted((ROOT / "src" / "torusflow").glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        key = f"{path.stem}.src_lines"
        out[key if key in out and path.stem in LAYERS else "support.src_lines"] += lines
    out["src.lines"] = sum(out.values())
    return out


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Stream:
    """Seeded requests of one workload, pre-generated during set-up."""

    def __init__(self, workload, seed: int, count: int):
        self.workload = workload
        self.seed = seed
        self.requests = [workload.make(seed, i) for i in range(count)]

    def __getitem__(self, i: int) -> dict:
        while i >= len(self.requests):  # past the pre-generated pool: untimed
            self.requests.append(self.workload.make(self.seed, len(self.requests)))
        return self.requests[i]


class Client:
    """Serves requests one at a time and checks each output afterwards."""

    def __init__(self, lib, workload, tmp: Path, tracer=None):
        self.lib = lib
        self.workload = workload
        self.tmp = tmp
        self.tracer = tracer
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.failures: list[str] = []
        self.violations = 0
        self.outputs: list[list[float]] = []

    def call(self, req: dict, traced: bool = False):
        """One timed request; returns (output or None, error, seconds, cpu seconds)."""
        if self.tracer is not None:
            self.tracer.active = traced
            self.tracer.request_id = req["index"]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, error = self.workload.run(self.lib, req, self.tmp), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        if self.tracer is not None:
            self.tracer.active = False
        return out, error, seconds, cpu

    def replay(self, req: dict) -> float:
        """An unrecorded, unchecked run of a request (warm-up, overhead baseline)."""
        seconds = self.call(req)[2]
        self.workload.cleanup(req, self.tmp)
        return seconds

    def serve(self, req: dict, traced: bool = False) -> float:
        out, error, seconds, cpu = self.call(req, traced)
        self.latencies.append(seconds)
        self.cpu.append(cpu)
        problems = [error] if error else self.verify(req, out)
        if problems:
            self.failures.append(f"request {req['index']} ({req.get('kind', '')}): "
                                 + "; ".join(problems))
        if out is not None:
            self.outputs.append(self.workload.key_outputs(req, out))
            self.violations += self.workload.violations(out)
        self.workload.cleanup(req, self.tmp)
        return seconds

    def verify(self, req: dict, out) -> list[str]:
        try:
            return self.workload.check(self.lib, req, out)
        except Exception as exc:  # an oracle that cannot run rejects the output
            return [f"oracle raised {type(exc).__name__}: {exc}"]


class Probe:
    """Machine-speed probe: a fixed slice of the kind of work the layers do,
    192-bit integer residue steps and numpy passes over a 1 MB array, without
    calling torusflow.  `factor` converts times measured alongside it to the
    nominal machine speed."""

    mask = (1 << 192) - 1
    step = 0x6A09E667F3BCC908B2FB1366EA957D3E3ADEC17512775099  # frac(sqrt 2) * 2**192

    def __init__(self):
        import numpy as np

        self.array = np.random.default_rng(0).random(1 << 17)
        self.samples: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        r = 0
        for _ in range(4000):
            r = (r + self.step) & self.mask
        self.array.cumsum()[::4].copy().sort()
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def percentile_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least n * (1 - q) samples lie at or beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(args, probe: Probe) -> list[float]:
    """Seconds from spawning a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(5):
            probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return times


def pool_size(args) -> int:
    return TRACE_REQUESTS if args.trace else MIN_REQUESTS + 25 * args.seconds


def run_untraced(lib, workload, stream, tmp, args):
    setup_probe = Probe()
    setup_times = measure_setup(args, setup_probe)
    client = Client(lib, workload, tmp)
    client.replay(stream[0])  # warm-up
    probe = Probe()
    i = 0
    busy = 0.0
    while busy < args.seconds or i < MIN_REQUESTS:
        probe()
        busy += client.serve(stream[i])
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(client.latencies)
    raw = {"setup_s": statistics.median(setup_times),
           "request_s.p50": statistics.median(client.latencies),
           "request_s.p90": percentile_rank(client.latencies, 0.9),
           "requests_per_s": n / sum(client.latencies)}
    scale = {"setup_s": setup_probe.factor(), "request_s.p50": probe.factor(),
             "request_s.p90": probe.factor(), "requests_per_s": 1.0 / probe.factor()}
    metrics = {name: value * scale[name] for name, value in raw.items()}
    metrics["ok_frac"] = (n - len(client.failures)) / n
    metrics["peak_rss_mb"] = peak_rss_mb
    notes = [f"{n} requests, {len(client.failures)} failed; p50 and p90 over {n} samples "
             f"({n - math.ceil(0.9 * n)} beyond the p90)",
             f"set-up runs (s, raw): {', '.join(f'{t:.4f}' for t in setup_times)}",
             "raw: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
             f"speed factors (nominal / measured probe): set-up {setup_probe.factor():.4f}, "
             f"requests {probe.factor():.4f}",
             f"cpu per wall second: {sum(client.cpu) / sum(client.latencies):.4f}"]
    if workload.name == "audit":
        notes.append(f"audit violations (mathematics, not failures): {client.violations}")
    return client, metrics, notes


def run_traced(lib, workload, stream, tmp):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    client = Client(lib, workload, tmp, tracer)
    client.replay(stream[0])  # warm-up
    traced_s = untraced_s = 0.0
    for i in range(TRACE_REQUESTS):
        req = stream[i]
        if i >= OVERHEAD_REQUESTS:
            client.serve(req, traced=True)
            continue
        # alternate which side runs first, so warm caches favour neither
        if i % 2:
            untraced_s += client.replay(req)
        traced_s += client.serve(req, traced=True)
        if i % 2 == 0:
            untraced_s += client.replay(req)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.npz")
    metrics = tracer.summarize(sum(client.latencies))
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["process.cpu_per_wall"] = sum(client.cpu) / sum(client.latencies)
    metrics["outputs.max_rel_dev"], ref_note = reference_deviation(lib, workload, tmp)
    metrics.update(src_lines())
    notes = [f"{TRACE_REQUESTS} traced requests, {len(client.failures)} failed; "
             f"{len(tracer.fid)} spans written to {OUT / f'spans-{workload.name}.npz'}",
             ref_note]
    if tracer.count_failures:
        notes.append(f"{tracer.count_failures} work counts could not be read")
    if tracer.unmatched:
        notes.append(f"no library function matches: {', '.join(tracer.unmatched)}")
    return client, metrics, notes


def reference_deviation(lib, workload, tmp) -> tuple[float, str]:
    """Largest relative deviation of key outputs from reference.json."""
    stored = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    client = Client(lib, workload, tmp)
    worst = 0.0
    for i, ref in enumerate(stored):
        req = workload.make(DEFAULT_SEED, i)
        out = client.call(req)[0]
        workload.cleanup(req, tmp)
        got = workload.key_outputs(req, out) if out is not None else []
        if len(got) != len(ref):
            worst = max(worst, 1.0)
            continue
        for a, b in zip(got, ref):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-9))
    return worst, (f"max relative deviation from reference.json over {len(stored)} "
                   f"default-seed requests: {worst:.3e}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    lib = load_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    stream = Stream(workload, args.seed, pool_size(args))
    if args.setup_only:
        print("ready", flush=True)
        return 0
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            client, metrics, notes = run_traced(lib, workload, stream, tmp)
            units = {name: per_layer_unit(name) for name in per_layer_names()}
        else:
            client, metrics, notes = run_untraced(lib, workload, stream, tmp, args)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for note in notes:
        print(f"  {note}")
    for failure in client.failures[:20]:
        print(f"  FAILED {failure}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": not client.failures,
        "attempted": len(client.latencies),
        "failed": len(client.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def write_reference() -> int:
    """Store the key outputs of the first default-seed requests of each workload."""
    lib = load_library()
    from workloads import WORKLOADS

    stored = {}
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOAD_NAMES:
            workload = WORKLOADS[name]()
            client = Client(lib, workload, tmp)
            for i in range(REFERENCE_REQUESTS):
                client.serve(workload.make(DEFAULT_SEED, i))
            if client.failures:
                raise SystemExit(f"{name}: {client.failures[0]}")
            stored[name] = client.outputs
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": stored}) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torusflow" / "__init__.py").is_file():
        print(f"error: no torusflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads()
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
