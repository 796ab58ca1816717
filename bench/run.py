"""Benchmark of the linboltz CLI: one workload per process, closed loop.

    python3 bench/run.py --workload certify --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55   # table only

Run from the root of a source checkout (the package is imported from
``src/``).  One caller runs the workload's job sequence again and again,
each job through ``linboltz.cli.main`` in this process, until the next
sequence would end after ``--seconds``; at least one sequence always runs.
BLAS is pinned to one thread.  Jobs read generated configs and write into a
fresh temporary directory under ``.bench_work/``, removed at the end.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced sequences and reports the per-layer metrics, including
the tracing overhead.  The run manifest (versions, BLAS, cores, commit,
seed, configs, raw timings) and, for traced runs, the spans are written to
``.bench_results/<workload>-s<seed>-t<trace>/``.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

import metrics
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5


def _import_program():
    """Import linboltz from this checkout's ``src/``, or exit without a result.

    BLAS is pinned to one thread first, as numpy reads the setting on load.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "linboltz", "__init__.py")):
        sys.exit(f"no linboltz sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import linboltz.cli

    if not os.path.abspath(linboltz.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported linboltz from {linboltz.__file__}, not from {SRC}")
    return linboltz.cli


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the wall-clock time when ready")
    return p.parse_args(argv)


def call_main(cli, argv):
    """Exit code of one CLI call; None if it raised.  Its stdout is dropped."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return None


def run_sequence(cli, workloads, workload, cfg_paths, out, inputs, recorder):
    """One pass over the workload's jobs.

    Returns (seconds, jobs run, jobs failed, problems found).
    """
    jobs = workloads.jobs_for(workload, cfg_paths, out, inputs)
    problems = []
    failed = 0
    t0 = time.perf_counter()
    for job in jobs:
        span = recorder.span("cli." + job.command) if recorder else contextlib.nullcontext()
        with span:
            code = call_main(cli, job.argv)
        if code != 0:
            found = [f"exit code {code}"]
        else:
            try:
                found = job.check()
            except Exception as exc:  # unreadable or missing artifact
                found = [f"check raised {type(exc).__name__}: {exc}"]
        failed += bool(found)
        problems += [f"{job.command}: {p}" for p in found]
    elapsed = time.perf_counter() - t0
    if recorder is not None:
        recorder.counters["poisson_iterations"] += workloads.poisson_iterations(out)
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, len(jobs), failed, problems


def measure_setup(args):
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1]) - spawned)
    return times


def environment(root):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
    }


def _blas_threads():
    """Thread count of every loaded OpenBLAS, read from the library itself."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[os.path.basename(path)] = getattr(lib, sym)()
                break
    return out


def _git_commit(root):
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    args = parse_args(argv)
    cli = _import_program()
    import workloads  # needs linboltz on the path

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload '{args.workload}'; one of {workloads.WORKLOADS}")
    inputs = workloads.inputs_for(args.seed)
    configs = workloads.make_configs(args.workload, inputs)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        cfg_paths = workloads.write_configs(configs, os.path.join(work, "configs"))
        if args.setup_probe:
            print(repr(time.time()))
            return 0
        setup_s = measure_setup(args)
        result, manifest, recorder = measure(args, cli, workloads, cfg_paths,
                                             work, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    manifest.update(workload=args.workload, seed=args.seed, trace=args.trace,
                    seconds=args.seconds, inputs=vars(inputs), configs=configs,
                    environment=environment(ROOT), setup_s=setup_s)
    if args.trace == 0:
        result["metrics"] = metrics.end_to_end(
            setup_s, manifest["sequence_s"],
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            result["attempted"], result["failed"])
    results = os.path.join(ROOT, ".bench_results",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(results, ignore_errors=True)
    os.makedirs(results)
    with open(os.path.join(results, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    if recorder is not None:
        recorder.write_tsv(os.path.join(results, "spans.tsv"))
    with open(os.path.join(results, "result.json"), "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, names):
    """Each workload in a process of its own; prints every metric by name."""
    all_ok = True
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}")
            all_ok = False
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        all_ok &= result["correct"]
        print(f"{name}: {result['failed']} of {result['attempted']} jobs failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")
    return 0 if all_ok else 1


def measure(args, cli, workloads, cfg_paths, work, inputs):
    """The closed loop; traced runs alternate plain and traced sequences.

    A sequence starts only if it should end within ``--seconds``, judged by
    the longest one so far; the first one (two when tracing) always runs.
    """
    recorder = spans.Recorder() if args.trace else None
    plain_s, traced, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    for k in itertools.count():
        out = os.path.join(work, f"seq{k}")
        if args.trace and k % 2:
            first = len(recorder.spans)
            recorder.counters.clear()
            uninstall = spans.instrument(recorder)
            try:
                seq_s, n_jobs, n_failed, found = run_sequence(
                    cli, workloads, args.workload, cfg_paths, out, inputs, recorder)
            finally:
                uninstall()
            traced.append(metrics.sequence_layers(recorder.spans[first:],
                                                  recorder.counters, seq_s))
        else:
            seq_s, n_jobs, n_failed, found = run_sequence(
                cli, workloads, args.workload, cfg_paths, out, inputs, None)
            plain_s.append(seq_s)
        attempted += n_jobs
        failed += n_failed
        problems += found
        for p in found:
            print(f"job failed: {p}", file=sys.stderr)
        longest = max(plain_s + [t["traced_job_s"] for t in traced])
        if k >= args.trace and time.perf_counter() - start + longest > args.seconds:
            break
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}
    if args.trace:
        result["metrics"] = metrics.per_layer(traced, plain_s)
    manifest = {"sequence_s": plain_s, "traced_sequences": traced,
                "problems": problems}
    return result, manifest, recorder


if __name__ == "__main__":
    sys.exit(main())
