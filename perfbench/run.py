"""poispath benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload homotopy|scan|cli --seed N \
        --seconds T --trace 0|1

Run it from the root of a source checkout; it measures the code under
./src from the outside. With --trace 0 it times set-up in fresh processes,
then runs the workload's operations in a closed loop (one client, one
process, one operation at a time) and prints the end-to-end metrics. T sizes
the run: it executes a fixed number of operations, about T seconds of work
at the baseline (bench_inputs.RUN_RATE), so the operations attempted and
failed repeat exactly for a seed. With --trace 1 it runs one cycle of operations twice, untraced and
under span wrappers, and prints the per-layer metrics. Every operation's
output is checked against closed forms. The last line of stdout is the
result as one JSON object; details, and the spans of a traced run, go to
./.perfbench/.
"""

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "bench_worker.py")
# set-up is measured this many times per run; the median is reported
SETUP_SAMPLES = 3
# every run must end within this many seconds
RUN_BUDGET = 170.0
# every process the benchmark starts runs its BLAS and OpenMP work on one
# thread: one client, one process, one thread. On a small shared host a
# second BLAS thread waits on the scheduler, and the scan workload's timings
# then spread three to four times wider.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("setup_s", "s"), ("goodput_ops_s", "ops/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"), ("pass_ratio", "1"))


class BenchError(Exception):
    pass


class Run:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.started = time.perf_counter()
        self.procs = []
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.env.update(dict.fromkeys(THREAD_VARS, "1"))

    def remaining(self):
        left = RUN_BUDGET - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_BUDGET:.0f} s")
        return left

    def worker(self, mode, traced=False):
        cmd = [sys.executable, WORKER, "--root", self.root,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--seconds", str(self.args.seconds)]
        if traced:
            cmd.append("--traced")
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE)
        self.procs.append(proc)
        return proc

    def until_ready(self, proc):
        """Seconds from now until the worker reports set-up done."""
        start = time.perf_counter()
        ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
        line = proc.stdout.readline() if ready else b""
        if line.strip() != b"ready":
            self.stop(proc)
            raise BenchError(f"worker did not set up (exit {proc.returncode})")
        return time.perf_counter() - start

    def finish(self, proc):
        """Wait for the worker and return its JSON result."""
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self.stop(proc)
            raise BenchError("worker overran the run budget") from None
        lines = out.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed with exit code {proc.returncode}")
        return json.loads(lines[-1])

    @staticmethod
    def stop(proc):
        """End a worker; SIGTERM first, so that it can stop its own children."""
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.communicate()

    def close(self):
        """Stop every worker still running and wait for it."""
        for proc in self.procs:
            self.stop(proc)

    def setup_sample(self):
        if self.args.workload == "cli":
            # a one-shot user's set-up: a cold --show-config
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "poispath", "--show-config"],
                                      cwd=self.root, env=self.env, capture_output=True,
                                      timeout=self.remaining())
            except subprocess.TimeoutExpired:
                raise BenchError("--show-config overran the run budget") from None
            wall = time.perf_counter() - start
            if proc.returncode != 0 or not proc.stdout.startswith(b"{"):
                raise BenchError("--show-config failed")
            return wall
        proc = self.worker("setup")
        wall = self.until_ready(proc)
        proc.communicate(timeout=self.remaining())
        if proc.returncode != 0:
            raise BenchError(f"set-up worker exited with {proc.returncode}")
        return wall


# -- metrics -----------------------------------------------------------------

def tail(latencies):
    """Highest percentile with at least ten samples beyond it: the value at
    rank n - 10 of n. With fewer than 11 samples it falls back to the
    minimum."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(workload, setup, result):
    ops = result["ops"]
    latencies = [op["latency"] for op in ops]
    passed = sum(op["ok"] for op in ops)
    value, pct, beyond = tail(latencies)
    n = len(ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "goodput_ops_s": passed / result["elapsed"],
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_ratio": passed / n,
    }
    notes = {
        "setup_s": f"{len(setup)} set-ups",
        "goodput_ops_s": f"{passed} passed in {result['elapsed']:.2f} s",
        "op_p50_s": f"{n} ops",
        "op_tail_s": f"{n} ops, p{pct:.1f}, {beyond} beyond",
        "peak_rss_mb": "largest cli child" if workload == "cli" else "workload process",
        "pass_ratio": f"{n} ops, fail_ratio {(n - passed) / n:.4f}",
    }
    return metrics, notes, {"samples": n, "tail_percentile": pct,
                            "tail_beyond": beyond, "setup_samples": setup}


# -- environment ---------------------------------------------------------------

def environment(root, args, versions, env):
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.decode().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "poispath")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": versions.get("python"), "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"), "nproc": os.cpu_count(),
        "threads": {k: env.get(k) for k in THREAD_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def _table(metrics, units, notes):
    lines = [f"{'metric':34s} {'value':>14s}  {'unit':6s} samples"]
    for name, unit in units:
        lines.append(f"{name:34s} {metrics[name]:14.6g}  {unit:6s} {notes.get(name, '')}")
    return lines


def _failures(ops):
    lines = []
    for op in ops:
        if op["ok"]:
            continue
        keep = {k: op[k] for k in ("index", "kind", "profile", "range", "samples",
                                   "verdict", "zero", "zero_offset", "argv")
                if k in op}
        keep["known_defect"] = op["known_defect"]
        keep["fails"] = op["fails"]
        lines.append("failed: " + json.dumps(keep))
    return lines


def _exit_on_sigterm(signum, frame):
    # unwinds through the finally blocks that stop the workers
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("homotopy", "scan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "poispath", "__init__.py")):
        print("error: run from a poispath checkout (no src/poispath here)",
              file=sys.stderr)
        return 2
    try:
        report = measure(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    detail = os.path.join(out_dir, f"result-{args.workload}-{args.seed}-{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump(report["detail"], fh, indent=1)
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


def measure(args, root):
    run = Run(args, root)
    try:
        return _measure(run, args, root)
    finally:
        run.close()


def _measure(run, args, root):
    if args.trace == 0:
        setup = [run.setup_sample() for _ in range(SETUP_SAMPLES - (args.workload != "cli"))]
        proc = run.worker("run")
        ready = run.until_ready(proc)
        if args.workload != "cli":
            setup.append(ready)
        result = run.finish(proc)
        metrics, notes, extra = end_to_end(args.workload, setup, result)
        units = END_TO_END
        ops = result["ops"]
        checked = ops
    else:
        import bench_spans

        plain = run.worker("batch")
        run.until_ready(plain)
        untraced = run.finish(plain)
        traced_proc = run.worker("batch", traced=True)
        run.until_ready(traced_proc)
        result = run.finish(traced_proc)
        metrics = dict(result["layers"])
        # the command part of a call, without interpreter start and imports:
        # poispath.cli.main in process, or the set-up's registry.load
        if args.workload == "cli":
            metrics["cli.command_s"] = statistics.median(
                op["latency"] for op in untraced["ops"])
        else:
            metrics["cli.command_s"] = untraced["load_s"]
        metrics["trace.overhead_s"] = result["elapsed"] - untraced["elapsed"]
        notes = {"trace.overhead_s": f"traced {result['elapsed']:.2f} s, "
                                     f"untraced {untraced['elapsed']:.2f} s"}
        units = bench_spans.metric_names()
        ops = result["ops"]
        checked = ops + untraced["ops"]
        extra = {"spans": result["spans"], "spans_file": result["spans_file"]}
    env = environment(root, args, result["versions"], run.env)
    env["operations"] = len(ops)
    failed = sum(not op["ok"] for op in ops)
    correct = all(op["ok"] or op["known_defect"] for op in checked)
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "environment: " + json.dumps(env, sort_keys=True)]
    lines += _table(metrics, units, notes)
    lines += _failures(ops)
    result_obj = {
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    detail = {"environment": env, "result": result_obj, "extra": extra,
              "ops": ops}
    return {"lines": lines, "result": result_obj, "detail": detail}


if __name__ == "__main__":
    sys.exit(main())
