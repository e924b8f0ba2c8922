"""Workload process: set up, then run operations and report them as JSON.

    python3 perfbench/bench_worker.py --root DIR --workload W --seed N \
        --mode setup|run|batch [--seconds T] [--traced]

setup  loads the workload (imports and registry.load of its structures),
       prints "ready" and exits; the parent times it from the outside.
run    sets up, prints "ready", then runs the first
       bench_inputs.ops_per_run(W, T) operations of the seeded sequence in a
       closed loop, after one untimed warm-up operation for the in-process
       workloads.
batch  runs exactly one cycle of the sequence, in process (the cli workload
       through ``poispath.cli.main``); with --traced under span wrappers
       installed before set-up, adding the interpreter and import split.

The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback


def _setup_paths(root):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(root, "src"), here]


def _peak_rss_mb(who):
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    def __init__(self, args):
        import bench_inputs

        self.name = args.workload
        self.seed = args.seed
        self.root = os.path.abspath(args.root)
        self.src = os.path.join(self.root, "src")
        self.inputs = bench_inputs
        self.records = None
        self.seen = {}
        self.tmp = None
        self.load_s = 0.0

    def setup(self):
        import bench_ops
        import poispath

        if not os.path.abspath(poispath.__file__).startswith(self.src + os.sep):
            raise SystemExit(f"poispath imported from {poispath.__file__}, not {self.src}")
        self.ops = bench_ops
        if self.name == "cli":
            work = os.path.join(self.root, ".perfbench")
            os.makedirs(work, exist_ok=True)
            self.tmp = tempfile.mkdtemp(prefix="cli-", dir=work)
            self.env = bench_ops.child_env(self.src)
        else:
            start = time.perf_counter()
            self.records = bench_ops.load_pool(self.inputs.pool(self.name, self.seed))
            self.load_s = time.perf_counter() - start

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def execute(self, index, in_process=False):
        """Run operation `index` and check its output."""
        import bench_checks

        op = self.inputs.op_inputs(self.name, self.seed, index)
        outcome = {"index": index, "kind": op["kind"]}
        start = time.perf_counter()
        try:
            if self.name == "homotopy":
                out = self.ops.run_homotopy(op, self.records)
                latency = time.perf_counter() - start
                fails = bench_checks.check_homotopy(op, out)
            elif self.name == "scan":
                out = self.ops.run_scan(op, self.records)
                latency = time.perf_counter() - start
                fails = bench_checks.check_scan(op, out)
                if fails:
                    outcome.update(profile=op["profile"], range=[op["lo"], op["hi"]],
                                   samples=op["samples"], verdict=out["verdict"],
                                   zero=op["zero"], zero_offset=op["zero_offset"])
            else:
                argv = self.ops.expand_argv(op, self.tmp)
                if in_process:
                    code, stdout = self.ops.run_cli_inprocess(argv)
                    stderr = ""
                else:
                    code, stdout, stderr = self.ops.run_cli_child(argv, self.root, self.env)
                latency = time.perf_counter() - start
                files = self.ops.read_files(op, self.tmp) if code == 0 else {}
                fails = bench_checks.check_cli(op, code, stdout, files, self.seen)
                if fails:
                    outcome.update(argv=argv, stderr=stderr[-400:])
        except Exception as exc:  # an operation that raised counts as failed
            latency = time.perf_counter() - start
            fails = [f"raised {type(exc).__name__}: {exc}"]
            outcome["traceback"] = traceback.format_exc(limit=4)[-1200:]
        outcome.update(latency=latency, ok=not fails, fails=fails,
                       known_defect=bench_checks.only_known_defect(fails))
        return outcome


def _import_times(command, env, root):
    """Seconds of import work by module group, from -X importtime."""
    proc = _run([sys.executable, "-X", "importtime", *command], env, root)
    totals = {}
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the column header
        totals[parts[2].strip()] = self_us * 1e-6
    return totals


def _run(cmd, env, root):
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=170)


def _wall(cmd, env, root):
    start = time.perf_counter()
    _run(cmd, env, root)
    return time.perf_counter() - start


def import_split(workload, env, ops):
    """cli.* start-up metrics: bare interpreter start and the import time
    of the package, of scipy and of numpy, from -X importtime."""
    root = workload.root
    interpreter = statistics.median(
        _wall([sys.executable, "-c", "pass"], env, root) for _ in range(5))
    bare = set(_import_times(["-c", "pass"], env, root))

    def split(command):
        totals = _import_times(command, env, root)
        extra = {m: s for m, s in totals.items() if m not in bare}

        def group(prefix):
            return sum(s for m, s in extra.items()
                       if m == prefix or m.startswith(prefix + "."))

        return sum(extra.values()), group("scipy"), group("numpy")

    if workload.name == "cli":
        commands = []
        for index in ops:
            op = workload.inputs.op_inputs("cli", workload.seed, index)
            commands.append(["-m", "poispath", *workload.ops.expand_argv(op, workload.tmp)])
    else:
        # the modules the in-process workloads import during set-up
        code = "import poispath.homotopy, poispath.monodromy, poispath.paths, poispath.registry"
        commands = [["-c", code]] * 3
    rows = [split(command) for command in commands]
    imports = [statistics.median(r[k] for r in rows) for k in range(3)]
    return {"cli.interpreter_s": interpreter, "cli.import_s": imports[0],
            "cli.import_scipy_s": imports[1], "cli.import_numpy_s": imports[2]}


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=("homotopy", "scan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "batch"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running cli child is killed
    # and the temporary directory removed
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    _setup_paths(os.path.abspath(args.root))

    tracer = None
    if args.traced:
        import bench_spans

        tracer = bench_spans.Tracer().install()
    workload = Workload(args)
    try:
        workload.setup()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        outcomes = []
        if args.mode == "run":
            if args.workload != "cli":
                # first-call costs inside numpy and scipy are paid once per
                # process; keep them out of the first timed operation
                workload.execute(0)
            count = workload.inputs.ops_per_run(args.workload, args.seconds)
            start = time.perf_counter()
            for index in range(count):
                outcomes.append(workload.execute(index))
            elapsed = time.perf_counter() - start
        else:
            cycle = workload.inputs.cycle_length(args.workload)
            start = time.perf_counter()
            for index in range(cycle):
                outcomes.append(workload.execute(index, in_process=True))
            elapsed = time.perf_counter() - start
        result = {"elapsed": elapsed, "ops": outcomes, "load_s": workload.load_s,
                  "versions": _versions()}
        if args.workload == "cli" and args.mode == "run":
            result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        else:
            result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.metrics()
            layers.update(import_split(workload, workload.ops.child_env(workload.src),
                                       range(len(outcomes))))
            result["layers"] = layers
            result["spans"] = len(tracer.spans)
            spans_file = os.path.join(workload.root, ".perfbench",
                                      f"spans-{args.workload}-{args.seed}.json")
            os.makedirs(os.path.dirname(spans_file), exist_ok=True)
            tracer.write(spans_file)
            result["spans_file"] = os.path.relpath(spans_file, workload.root)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


def _versions():
    import numpy
    import scipy

    import poispath

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "poispath_file": poispath.__file__}


if __name__ == "__main__":
    sys.exit(main())
