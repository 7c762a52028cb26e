"""Benchmark runner for the marketgen CLI workflow.

Usage (from the repository root):

    python3 bench/run.py --workload copula-joint --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one table

One run of one workload:

1. pins BLAS to one thread before numpy is imported, so timings and the
   program's outputs do not depend on the machine's core count;
2. measures set-up several times: a fresh interpreter importing
   ``marketgen.cli`` plus writing the workload's input configs;
3. imports ``marketgen`` from ``src/`` and runs the workload's commands
   through ``marketgen.cli.main`` in this process: an untimed warm-up pass,
   then timed passes until ``--seconds`` would be exceeded (at least
   ``MIN_PASSES``);
4. checks every command's exit code and outputs, and that every pass (and
   every repeat of a command within a pass) wrote byte-identical artifacts;
5. with ``--trace 1`` alternates untraced and traced passes; traced passes
   wrap marketgen's functions from outside (``tracer.py``) and give the
   per-layer metrics;
6. writes a results file with an environment record under ``bench/results/``
   and prints one JSON line last: correct, attempted, failed and metrics
   (end-to-end metrics for ``--trace 0``, per-layer ones for ``--trace 1``,
   as listed in ``BENCHMARK.json``).
"""

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import MODULES, TARGETS, Tracer, summarize, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11
MIN_PASSES = 3
STAGES = ("simulate", "train", "generate", "evaluate")
SUM_TOLERANCE_S = 1e-6


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def measure_setup(workload, seed: int, work: Path) -> tuple[list, Path]:
    """Times of SETUP_REPEATS set-ups (fresh-interpreter import plus input
    configs); returns them and the last input directory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for k in range(SETUP_REPEATS):
        inp = work / f"inputs{k}"
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in 50 ms steps
        subprocess.run([sys.executable, "-c", "import marketgen.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        inp.mkdir(parents=True)
        workload.write_inputs(str(inp), seed)
        times.append(time.perf_counter() - t0)
    return times, inp


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    warmup: bool = False
    wall: float = 0.0
    stage_s: dict = field(default_factory=lambda: defaultdict(float))
    ops: list = field(default_factory=list)          # (label, error or None)
    artifacts: list = field(default_factory=list)    # per command: {file: sha256}
    reps_per_s: dict = field(default_factory=dict)   # mc stage -> replications / s
    summary: object = None

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


def _call_cli(cli, argv):
    """Run one command; returns an error message or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception:  # a traceback the CLI let through counts as a failure
        return "raised:\n" + traceback.format_exc()
    return None if rc == 0 else f"exit {rc}: {err.getvalue().strip()}"


def _run_checks(checks):
    """First error among a command's output checks, or None."""
    for check in checks:
        try:
            error = check()
        except (OSError, ValueError) as exc:  # missing or unparsable output
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            return error
    return None


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(cli, workload, inp: Path, out: Path, seed: int, tracer=None) -> Pass:
    out.mkdir(parents=True)
    result = Pass(traced=tracer is not None)
    t_pass = time.perf_counter()
    for step in workload.steps(str(inp), str(out), seed):
        if step.action is not None:
            try:
                step.action()
            except OSError as exc:  # its input is missing: a command before it failed
                result.ops.append(("prepare", f"{type(exc).__name__}: {exc}"))
                result.artifacts.append({})
            continue
        before = set(os.listdir(out))
        for k in range(step.repeat):
            span = tracer.span(f"stage.{step.stage}") if tracer else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter()
                error = _call_cli(cli, step.argv)
                dt = time.perf_counter() - t0
            stage = step.stage if step.stage in STAGES else "mc"
            result.stage_s[stage] += dt
            if step.reps:
                result.reps_per_s[step.stage] = step.reps / dt
            error = error or _run_checks(step.checks)
            digests = {name: _digest(out / name)
                       for name in sorted(set(os.listdir(out)) - before)}
            if k and error is None and digests != result.artifacts[-1]:
                error = "artifacts differ from the command's first run in this pass"
            result.ops.append((f"{step.stage}:{step.argv[0]}", error))
            result.artifacts.append(digests)
            if k < step.repeat - 1:
                # the next run starts from the same directory as the first:
                # replacing an existing file would time the file system's
                # flush-on-rename, not the program
                for name in digests:
                    (out / name).unlink()
    result.wall = time.perf_counter() - t_pass
    if tracer is not None:
        result.summary = summarize(tracer)
        _check_stage_sums(result)
    shutil.rmtree(out)
    return result


def _check_stage_sums(p: Pass) -> None:
    """Each stage's self times (its own self time is the unattributed
    remainder) must add up to the traced stage wall time."""
    roots = p.summary.roots
    if len(roots) != len(p.ops):
        p.ops.append(("trace", f"{len(roots)} root spans for {len(p.ops)} commands"))
        return
    for k, (_, duration, _, tree_self) in enumerate(roots):
        if abs(tree_self - duration) > SUM_TOLERANCE_S and p.ops[k][1] is None:
            p.ops[k] = (p.ops[k][0], f"self times sum to {tree_self!r}, stage took {duration!r}")


def _compare_artifacts(reference: Pass, p: Pass) -> None:
    """Every pass at one seed must write byte-identical artifacts, traced or not."""
    for k, (ref, got) in enumerate(zip(reference.artifacts, p.artifacts)):
        if ref != got and p.ops[k][1] is None:
            p.ops[k] = (p.ops[k][0], "artifacts differ from the first pass")


def run_passes(cli, workload, inp: Path, work: Path, seed: int, seconds: float,
               trace: bool) -> tuple[list, list]:
    """Closed loop: a warm-up pass, then rounds of one untraced pass (plus
    one traced pass if ``trace``) until the next round would end after
    ``seconds``.  The warm-up pass is checked but not timed: it pays the
    process's first-call costs (fresh heap pages, lazy imports) once."""
    t_start = time.perf_counter()
    passes, tracers = [run_pass(cli, workload, inp, work / "pass0", seed)], []
    passes[0].warmup = True
    while True:
        t_round = time.perf_counter()
        passes.append(run_pass(cli, workload, inp, work / f"pass{len(passes)}", seed))
        if trace:
            tracer = Tracer()
            with tracer:
                passes.append(run_pass(cli, workload, inp, work / f"pass{len(passes)}", seed,
                                       tracer))
            tracers.append(tracer)
        for q in passes[-1 - trace:]:
            _compare_artifacts(passes[0], q)
        now = time.perf_counter()
        enough = len(tracers) if trace else len(passes) - 1 >= MIN_PASSES
        if enough and now - t_start + (now - t_round) > seconds:
            return passes, tracers


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(passes, setup_times) -> dict:
    plain = [p for p in passes if not (p.traced or p.warmup)]
    metrics = {
        "setup_s": median(setup_times),
        "pipeline_s": median([p.pipeline_s for p in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for stage in STAGES:
        metrics[f"{stage}_s"] = median([p.stage_s[stage] for p in plain])
    return metrics


def per_layer_metrics(passes) -> dict:
    plain = [p for p in passes if not (p.traced or p.warmup)]
    traced = [p.summary for p in passes if p.traced]
    metrics = {}
    for t in TARGETS:
        metrics[f"{t.name}.calls"] = median([s.calls.get(t.name, 0) for s in traced])
        metrics[f"{t.name}.self_s"] = median([s.self_s.get(t.name, 0.0) for s in traced])
        for counter, _ in t.counters:
            key = f"{t.name}.{counter}"
            metrics[key] = median([s.counts.get(key, 0) for s in traced])
    for module in MODULES:
        metrics[f"{module}.errors"] = median([s.errors[module] for s in traced])
    metrics["trace.unattributed_s"] = median([sum(r[2] for r in s.roots) for s in traced])
    metrics["trace.overhead_s"] = (median([p.pipeline_s for p in passes if p.traced])
                                   - median([p.pipeline_s for p in plain]))
    for stage in ("mc_model", "mc_bootstrap"):
        metrics[f"{stage}.reps_per_s"] = median([p.reps_per_s.get(stage, 0.0) for p in plain])
    return metrics


def stage_breakdown(passes) -> dict:
    """Traced wall time and unattributed remainder per stage (medians)."""
    out = {}
    traced = [p.summary for p in passes if p.traced]
    for stage in sorted({r[0] for s in traced for r in s.roots}):
        out[stage] = {
            "traced_s": median([sum(r[1] for r in s.roots if r[0] == stage) for s in traced]),
            "unattributed_s": median([sum(r[2] for r in s.roots if r[0] == stage)
                                      for s in traced]),
        }
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def select(spec_metrics, computed: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in computed]
    if missing:
        raise KeyError(f"metrics listed in BENCHMARK.json but not computed: {missing}")
    return {m["name"]: {"value": float(computed[m["name"]]), "unit": m["unit"]}
            for m in spec_metrics}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        setup_times, inp = measure_setup(workload, seed, work)
        sys.path.insert(0, str(SRC))
        from marketgen import cli

        passes, tracers = run_passes(cli, workload, inp, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()

    ops = [op for p in passes for op in p.ops]
    failures = [f"{label}: {error}" for label, error in ops if error is not None]
    attempted, failed = len(ops), len(failures)
    e2e = end_to_end_metrics(passes, setup_times)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "passes": [{"traced": p.traced, "warmup": p.warmup, "wall_s": p.wall,
                    "stage_s": dict(p.stage_s), "reps_per_s": p.reps_per_s} for p in passes],
        "setup_s": setup_times,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": failures,
        "end_to_end": e2e,
    }
    if trace:
        layers = per_layer_metrics(passes)
        record["per_layer"] = layers
        record["stages_traced"] = stage_breakdown(passes)
        metrics = select(spec["per_layer"], layers)
        RESULTS.mkdir(exist_ok=True)
        write_spans(tracers, RESULTS / f"{name}_spans.csv.gz")
    else:
        metrics = select(spec["end_to_end"], e2e)
        RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}_seed{seed}_trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{name}: {len(passes)} passes, fail_frac {failed / attempted:.4g} "
          f"({failed}/{attempted})")
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(WORKLOADS)
    print(f"{'metric':44s} {'unit':8s}" + "".join(f"{n:>14s}" for n in names))
    row = [results[n]["failed"] / results[n]["attempted"] for n in names]
    print(f"{'fail_frac':44s} {'ratio':8s}" + "".join(f"{v:14.4g}" for v in row))
    for key, m in results[names[0]]["metrics"].items():
        print(f"{key:44s} {m['unit']:8s}"
              + "".join(f"{results[n]['metrics'][key]['value']:14.6g}" for n in names))
    ok = all(r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "marketgen" / "cli.py").is_file():
        print(f"error: no marketgen sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
