"""Benchmark ellvar on one workload and one seed.

    python3 bench/run.py --workload desk|generic|mc --seed N --seconds S --trace 0|1

Run it from anywhere; it imports the package from ``src/`` next to this
directory.  One client sends requests in a closed loop: each request
starts when the previous one has finished and been checked.  Only the
package calls are timed; input generation and the oracle checks run
between requests.  A run is a fixed number of blocks of requests,
proportional to ``--seconds``, so that a seed always gives the same
requests; it takes about ``--seconds`` of request time on a 2-vCPU VM.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass and the tracing overhead.  Human
readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in this
directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("req_ms.p50", "ms"),
    ("req_ms.tail", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cli_cold_s", "s"),
)

# stops in the loop for fresh-process samples; each takes one cli_cold_s
# sample (var, es, table in turn), and every second stop also one setup_s
# sample
COLD_STOPS = 6
# the tail percentile is the highest rung with at least ten samples beyond
# it, capped per workload so that a faster program does not move it up
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_CAP = {"desk": 99.0, "generic": 75.0, "mc": 75.0}
# a run is a fixed number of blocks, so that a seed always gives the same
# requests and the same failures; this many blocks per second of --seconds,
# which fills about --seconds of request time on a 2-vCPU x86 VM (generic
# runs longer: its spread from run to run is the widest)
BLOCKS_PER_S = {"desk": 3.0, "generic": 0.2, "mc": 0.2}
# traced passes are shorter: the traced pass and an untraced one of the
# same requests must together end in time
TRACE_BLOCKS_PER_S = {"desk": 1.0, "generic": 0.1, "mc": 0.1}
# a pass gives up after this many times --seconds of request time, so that
# a run on a slow machine still ends in time; at this commit none does
BUDGET = 1.75


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Tally:
    """Outcome of one pass of the loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ok = 0
        self.busy = 0.0
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.gross = 0
        self.unexpected: list[str] = []
        self.misses = 0
        self.truncated = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("hit_ratio"):
        return "ratio"
    if ".paths_per_s." in name:
        return "1/s"
    return "B" if name.endswith("bytes_drawn") else "count"


def run_loop(wl, blocks: int, budget: float, *, tracer=None, interlude=None, interludes=0) -> Tally:
    """Closed loop over the requests of a run of ``blocks`` blocks.

    It calls ``interlude`` (off the clock) ``interludes`` times, at evenly
    spaced requests.  It gives up early, and marks the tally truncated,
    after ``budget`` seconds of request time, so that a much slower
    program still ends in time.
    """
    from ellvar.errors import EllvarError
    from ellvar.elliptic import clear_quantile_cache
    from workloads import WrongAnswer

    clear_quantile_cache()
    wl.plan(blocks)
    tally = Tally()
    stops = [round((k + 1) * wl.size / (interludes + 1)) for k in range(interludes)]
    for i in range(wl.size):
        req = wl.request(i)
        if tracer is not None:
            tracer.request = i
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = wl.execute(req)
        except Exception as exc:  # a failed request is counted and the loop goes on
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            tally.failures[f"{req['kind']}: {type(exc).__name__}"] += 1
            if not isinstance(exc, (EllvarError, ArithmeticError)):
                tally.unexpected.append("".join(traceback.format_exception(exc)))
        else:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            try:
                tally.misses += wl.check(req, result) or 0
            except WrongAnswer as exc:
                tally.wrong.append(f"request {i} ({req['kind']}){' GROSS' if exc.gross else ''}: {exc}")
                tally.gross += exc.gross
            else:
                tally.ok += 1
        tally.latencies.append(elapsed)
        tally.busy += elapsed
        for _ in range(stops.count(i + 1)):
            interlude()
        if tally.busy > budget and i + 1 < wl.size:
            tally.truncated = True
            break
    return tally


def out_of_loop(wl) -> Tally:
    """Operations outside the timed loop; counted in attempted/failed only."""
    from ellvar.errors import EllvarError
    from workloads import WrongAnswer

    tally = Tally()
    for label, op in wl.out_of_loop():
        start = time.perf_counter()
        try:
            op()
        except WrongAnswer as exc:
            tally.wrong.append(f"{label}: {exc}")
            tally.gross += exc.gross
            print(f"out-of-loop WRONG  {label}: {exc}")
        except Exception as exc:  # reported, counted, and the run goes on
            tally.failures[f"{label}: {type(exc).__name__}"] += 1
            print(f"out-of-loop FAILED {label}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, (EllvarError, ArithmeticError)):
                tally.unexpected.append("".join(traceback.format_exception(exc)))
        else:
            tally.ok += 1
            print(f"out-of-loop ok     {label}")
        tally.latencies.append(time.perf_counter() - start)
    return tally


def _sound(*tallies: Tally) -> bool:
    """No gross error and no exception outside the package's error types."""
    return not any(t.gross or t.unexpected for t in tallies)


def tail_percentile(count: int, cap: float) -> float:
    rungs = [p for p in LADDER if p <= cap and count * (100.0 - p) / 100.0 >= 10.0]
    return rungs[-1] if rungs else LADDER[0]


def _percentile(values, p: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), p))


def cli_files(workdir: Path, seed: int) -> tuple[str, str]:
    """A 20-factor book and its model file for the cold CLI runs."""
    import numpy as np

    from workloads import factor_cov

    rng = np.random.default_rng([seed, 9])
    cov = factor_cov(rng, 20)
    book, model = workdir / "cold_book.csv", workdir / "cold_model.json"
    book.write_text("id,delta\n" + "".join(f"f{j},{x!r}\n" for j, x in enumerate(rng.normal(size=20).tolist())))
    model.write_text(json.dumps({"mu": rng.normal(0.0, 0.05, 20).tolist(), "sigma": cov.tolist()}))
    return str(book), str(model)


class ColdStarts:
    """Fresh-process timings: workload set-up (`setup_s`) and `python -m ellvar.cli` (`cli_cold_s`).

    Each call takes one CLI sample, and every second call one set-up
    sample.  The calls are spread over the timed loop,
    between requests and off its clock, so that their medians see the
    machine over the whole run rather than during one burst before it.
    """

    def __init__(self, args, workdir: Path):
        import numpy as np

        from ellvar import cli, elliptic, student

        self.probe = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--setup-probe"]
        book, model_file = cli_files(workdir, args.seed)
        self.runs = (
            ["var", "--portfolio", book, "--model", "student", "--nu", "5", "--model-file", model_file,
             "--format", "json", "--alpha", "0.01", "--alpha", "0.05"],
            ["es", "--portfolio", book, "--model", "normal", "--model-file", model_file,
             "--format", "json", "--alpha", "0.025"],
            ["table", "--nu", "3", "--nu", "5", "--nu", "10", "--alpha", "0.01", "--alpha", "0.05"],
        )
        _, self.delta = cli.read_portfolio(book)
        doc = json.loads(Path(model_file).read_text())
        mu, sigma = np.asarray(doc["mu"]), np.asarray(doc["sigma"])
        self.models = {
            "var": student.StudentParams(nu=5.0, mu=mu, sigma=sigma),
            "es": elliptic.EllipticModel(mu=mu, sigma=sigma, generator=student.gaussian_generator(20)),
        }
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.wrong: list = []

    def __call__(self) -> None:
        if len(self.cli) % 2 == 1:
            self._setup()
        self._cli(self.runs[len(self.cli) % len(self.runs)])

    def _setup(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.probe, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        self.setup.append(elapsed)

    def _cli(self, argv: list[str]) -> None:
        from workloads import WrongAnswer, check_cli_reports, check_cli_table

        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ellvar.cli", *argv], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=120)
        self.cli.append(time.perf_counter() - start)
        result = (proc.returncode, proc.stdout, proc.stderr)
        try:
            if argv[0] == "table":
                check_cli_table(result, (3.0, 5.0, 10.0), (0.01, 0.05))
            else:
                alphas = [float(a) for a in argv[argv.index("--alpha") + 1 :: 2]]
                check_cli_reports(result, self.models[argv[0]], self.delta, alphas)
        except WrongAnswer as exc:
            self.wrong.append(exc)


def import_breakdown(runs: int = 3) -> tuple[float, float, list]:
    """Parse `python -X importtime -c "import ellvar"`: ellvar and scipy totals."""
    results = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ellvar"], cwd=ROOT,
                              env=_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import ellvar failed: {proc.stderr[-500:]}")
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or "self [us]" in line:
                continue
            rows.append((parts[2].strip(), int(parts[0].split(":")[1]), int(parts[1])))
        ellvar_ms = next(cum for name, _, cum in rows if name == "ellvar") / 1e3
        scipy_ms = sum(own for name, own, _ in rows if name.split(".")[0] == "scipy") / 1e3
        costliest = sorted((r for r in rows if r[0] != "ellvar"), key=lambda r: -r[2])[:5]
        results.append((ellvar_ms, scipy_ms, costliest))
    results.sort(key=lambda r: r[0])
    return results[len(results) // 2]


def _print_loop(label: str, tally: Tally) -> None:
    print(f"{label}: {tally.attempted} requests, {tally.ok} ok, {tally.failed} failed, "
          f"{tally.busy:.2f} s of request time{' (truncated)' if tally.truncated else ''}")
    for key, count in sorted(tally.failures.items()):
        print(f"  failed  {count:5d}  {key}")
    for text in tally.wrong[:20]:
        print(f"  WRONG   {text}")
    for text in tally.unexpected[:5]:
        print(f"  UNEXPECTED EXCEPTION\n{text}")


def end_to_end(args, workdir: Path):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, str(workdir))
    cold = ColdStarts(args, workdir)
    extra = out_of_loop(wl)
    blocks = max(1, round(args.seconds * BLOCKS_PER_S[args.workload]))
    loop = run_loop(wl, blocks, BUDGET * args.seconds, interlude=cold, interludes=COLD_STOPS)
    while len(cold.cli) < COLD_STOPS:  # a loop that was cut short
        cold()
    _print_loop("timed loop", loop)
    setup, cli_cold, cli_wrong = cold.setup, cold.cli, cold.wrong

    lat_ms = [x * 1e3 for x in loop.latencies]
    tail_p = tail_percentile(len(lat_ms), TAIL_CAP[args.workload])
    attempted = loop.attempted + extra.attempted
    failed = loop.failed + extra.failed
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "req_ms.p50": (statistics.median(lat_ms), f"n={len(lat_ms)}"),
        "req_ms.tail": (_percentile(lat_ms, tail_p),
                        f"p{tail_p:g}, n={len(lat_ms)}, {len(lat_ms) * (100 - tail_p) / 100:.0f} beyond"),
        "req_per_s": (loop.ok / loop.busy, f"{loop.ok} ok in {loop.busy:.2f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n=1"),
        "cli_cold_s": (statistics.median(cli_cold), f"median of {len(cli_cold)} runs"),
    }
    print(f"workload {args.workload}, seed {args.seed}")
    for name, unit in END_TO_END:
        value, note = values[name]
        print(f"  {name:<14} {value:12.4f} {unit:<4} ({note})")
    print(f"  {'fail_frac':<14} {failed / attempted:12.4f} ratio ({failed} of {attempted}; "
          "also the result line's failed/attempted)")
    for exc in cli_wrong:
        print(f"  WRONG   cold cli{' GROSS' if exc.gross else ''}: {exc}")
    correct = not any(exc.gross for exc in cli_wrong) and _sound(loop, extra)
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    return correct, attempted, failed, metrics


def per_layer(args, workdir: Path):
    import ellvar.elliptic
    from tracing import Tracer
    from tracing import per_layer as layer_values
    from workloads import WORKLOADS

    ellvar_ms, scipy_ms, costliest = import_breakdown()
    wl = WORKLOADS[args.workload](args.seed, str(workdir))
    extra = out_of_loop(wl)
    blocks = max(1, round(args.seconds * TRACE_BLOCKS_PER_S[args.workload]))
    budget = BUDGET * args.seconds
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(wl, blocks, budget, tracer=tracer)
    finally:
        tracer.uninstall()
    entries = len(ellvar.elliptic._quantile_cache)
    plain = run_loop(wl, blocks, budget)
    _print_loop("traced pass", traced)
    _print_loop("untraced pass, same requests", plain)

    values = layer_values(tracer)
    values["elliptic.quantile_cache.entries"] = entries
    values["mc.verdict.miss_3se"] = traced.misses
    values["import.ellvar_ms"] = ellvar_ms
    values["import.scipy_ms"] = scipy_ms
    traced_p50 = statistics.median(traced.latencies) * 1e3
    plain_p50 = statistics.median(plain.latencies) * 1e3
    values["trace.overhead_ms"] = traced_p50 - plain_p50

    trace_dir = ROOT / ".bench_trace"
    trace_dir.mkdir(exist_ok=True)
    tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")

    print(f"workload {args.workload}, seed {args.seed}: {blocks} block(s), {traced.attempted} requests, "
          f"{len(tracer.spans)} spans written to .bench_trace/")
    print(f"  req_ms.p50 traced {traced_p50:.4f} ms, untraced {plain_p50:.4f} ms")
    print("  import ellvar: five costliest modules (cumulative ms): "
          + ", ".join(f"{name} {cum / 1e3:.1f}" for name, _, cum in costliest))
    metrics = {}
    for name in values:
        unit = layer_unit(name)
        metrics[name] = {"value": float(values[name]), "unit": unit}
        print(f"  {name:<40} {values[name]:14.4f} {unit}")
    attempted = traced.attempted + extra.attempted
    failed = traced.failed + extra.failed
    return _sound(traced, plain, extra), attempted, failed, metrics


def _declared(trace: int) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("desk", "generic", "mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ellvar" / "__init__.py").is_file():
        print(f"error: the ellvar package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed, str(workdir))
            print("ready", flush=True)
            return 0
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = _declared(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        print(f"error: BENCHMARK.json lists {sorted(set(declared) ^ set(metrics))} differently",
              file=sys.stderr)
        return 3
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
