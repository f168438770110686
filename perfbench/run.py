"""The treegroups benchmark: seeded workloads, checked answers, metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload long-words --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/intent.json`` for the client model, size ranges
and which per-layer metric should move which end-to-end metric):

  long-words    one cold CLI call per op on long words and big exponents
  certify-scan  one long-lived worker making library calls back to back
  cli-light     one cold CLI call per op on start-up-bound subcommands

Every op runs alone (one closed-loop client).  A run repeats one pass over
the op list ``max(1, round(seconds / nominal pass time))`` times, so a run
does the same work on every commit.  Every output is
checked against an answer derived without ``treegroups``.  Children get a
fixed PYTHONHASHSEED, an address-space limit and a timeout per op.

The host's speed drifts by a fifth and more within minutes (a fixed loop
ran from 0.82 to 1.42 s within a minute on the 2-vCPU VM the benchmark was
defined on), which no run length averages away.  So before every timed op
the benchmark times a fixed pure-Python reference (allocating tuples,
strings and lists and looking them up in a dict) in its own process, and
reports each time at the reference speed: the wall time times
``REF_NOMINAL_S / median(reference times of the run)``; ops_per_s is divided
by that factor.  No ``treegroups`` code runs in the reference, so a change
to the program moves the reported figures as it moves the wall times.  The
raw wall-clock figures and the factor are printed as a comment line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
traced, plus untraced twins of (some of) its ops, and prints the per-layer
metrics from the spans and ``trace.overhead_ratio``.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import mpmath  # noqa: E402

import answers  # noqa: E402
import workloads  # noqa: E402
from tracer import CERTIFY, COSET_REP, LAYERS, NORMAL_FORM  # noqa: E402

WORKLOADS = ("long-words", "certify-scan", "cli-light")
CLI_WORKLOADS = ("long-words", "cli-light")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples beyond the tail percentile
OP_TIMEOUT_S = {"long-words": 60.0, "certify-scan": 60.0, "cli-light": 20.0}
TRACE_TIMEOUT_FACTOR = 4.0
REF_ITEMS, REF_CHUNK = 30_000, 3_000
REF_NOMINAL_S = 0.03  # about the reference's median time within a run on that VM
MEMORY_LIMIT = 1 << 30  # address space of each child; traced children get twice this
VERSION_RE = re.compile(r"\d+\.\d+(\.\d+)?\S*")

# the *_slope metrics: (span name, size kind fitted on each workload)
SLOPES = {
    "tree.classify.size_slope": ("tree.classify", {
        "long-words": "syllables", "certify-scan": "depth", "cli-light": "letters"}),
    "oracles.coset_rep.exponent_slope": (COSET_REP, {
        "long-words": "exponent", "certify-scan": "depth", "cli-light": "letters"}),
}


def reference_s() -> float:
    """Seconds the fixed reference work takes now.  It works in chunks, so
    that the benchmark process stays small: forked children start with its
    resident pages, which would count in their ru_maxrss."""
    t0 = time.perf_counter()
    for lo in range(0, REF_ITEMS, REF_CHUNK):
        items = [(i, str(i), [i]) for i in range(lo, lo + REF_CHUNK)]
        table = {item[1]: item for item in items}
        sum(table[str(i)][0] for i in range(lo, lo + REF_CHUNK, 3))
    return time.perf_counter() - t0


class Bench:
    """One benchmark run: the work directory, child processes and results."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        self.timeout = OP_TIMEOUT_S[workload]
        self.workdir = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir)
        self.paths = {}
        for name, doc in workloads.SPECS.items():
            self.paths[name] = os.path.join(self.workdir, f"{name}.json")
            with open(self.paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.passes = max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))
        self.ops = workloads.generate(workload, seed, self.paths, self.workdir)
        # a fixed hash seed keeps set iteration order, and with it the work
        # a call does, the same from run to run
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.failures: List[str] = []
        self.ref_times: List[float] = []  # reference_s() before each timed op

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run still uses it

    # -- child processes ---------------------------------------------------

    def _popen(self, cmd, traced: bool, **kw) -> subprocess.Popen:
        limit = MEMORY_LIMIT * (2 if traced else 1)

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(self.env, PERFBENCH_SPAWN=repr(time.monotonic()))
        return subprocess.Popen(cmd, cwd=self.root, env=env, preexec_fn=limit_memory, **kw)

    @staticmethod
    def _reap(p: subprocess.Popen, timeout: float):
        """Wait up to timeout (kill after it); return (exit code, maxrss KiB, timed out)."""
        fd = os.pidfd_open(p.pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
        finally:
            os.close(fd)
        if not ready:
            p.kill()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, usage.ru_maxrss, not ready

    def run_cli(self, argv, traced: bool = False, trace_out: Optional[str] = None) -> dict:
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), trace_out, "--"] + argv
            timeout = self.timeout * TRACE_TIMEOUT_FACTOR
        else:
            cmd = [sys.executable, "-m", "treegroups.cli"] + argv
            timeout = self.timeout
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = self._popen(cmd, traced, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            code, maxrss, timed_out = self._reap(p, timeout)
            latency = time.perf_counter() - t0
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return {"latency": latency, "code": code, "stdout": stdout, "stderr": stderr,
                "maxrss": maxrss, "timed_out": timed_out}

    # -- checks ------------------------------------------------------------

    def check_cli(self, op: dict, res: dict) -> Optional[str]:
        if res["timed_out"]:
            return f"timeout after {res['latency']:.1f} s"
        if res["code"] != op["exit"]:
            return f"exit {res['code']} (expected {op['exit']}): {res['stderr'].strip()[-300:]}"
        if "version" in op["expect"]:
            return None if VERSION_RE.fullmatch(res["stdout"].strip()) else "bad --version output"
        try:
            doc = json.loads(res["stdout"])
        except json.JSONDecodeError:
            return "stdout is not JSON"
        return check_fields(op["expect"], doc)

    def fail(self, op: dict, why: str) -> None:
        where = " ".join(op["argv"]) if "argv" in op else f"{op['call']}({op['spec']}, {op['args']})"
        self.failures.append(f"{where[:160]}: {why}")

    # -- CLI workloads -----------------------------------------------------

    def setup_cli(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            self.ref_times.append(reference_s())
            res = self.run_cli(["--version"])
            if res["code"] != 0 or not VERSION_RE.fullmatch(res["stdout"].strip()):
                raise RuntimeError(f"set-up call failed: {res['stderr'][-300:]}")
            times.append(res["latency"])
        return statistics.median(times)

    def measure_cli(self) -> dict:
        setup = self.setup_cli()
        samples: List[float] = []
        passed, peak = 0, 0
        start = time.perf_counter()
        for _ in range(self.passes):
            for op in self.ops:
                ref = reference_s()
                self.ref_times.append(ref)
                start += ref  # the reference is not part of the measured wall time
                res = self.run_cli(op["argv"])
                why = self.check_cli(op, res)
                if why:
                    self.fail(op, why)
                passed += why is None
                peak = max(peak, res["maxrss"])
                samples.append(res["latency"])
        return end_to_end(samples, passed, time.perf_counter() - start, setup, peak,
                          self.ref_times)

    def trace_cli(self) -> dict:
        """One pass traced; every other op also untraced, for the overhead
        ratio (twinning all of them would double the run's length)."""
        rows = []
        for i, op in enumerate(self.ops):
            plain = self.run_cli(op["argv"]) if i % 2 == 0 else None
            out = os.path.join(self.workdir, f"trace-{i}.json")
            traced = self.run_cli(op["argv"], traced=True, trace_out=out)
            why = (plain and self.check_cli(op, plain)) or self.check_cli(op, traced)
            if why:
                self.fail(op, why)
            summary = {}
            if os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    summary = json.load(fh)
                os.remove(out)
            rows.append({"op": op, "plain": plain and plain["latency"],
                         "traced": traced["latency"], "summary": summary})
        return per_layer(rows, self.workload)

    # -- certify-scan --------------------------------------------------------

    def spawn_worker(self, traced: bool):
        err = open(os.path.join(self.workdir, f"worker-{'t' if traced else 'p'}.err"), "ab")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + (["--trace"] if traced else [])
        t0 = time.perf_counter()
        p = self._popen(cmd, traced, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
        err.close()
        reply = self.request(p, {"specs": self.paths}, self.timeout)
        if not reply or not reply.get("ready"):
            self.stop_worker(p)
            raise RuntimeError("worker did not start")
        return p, time.perf_counter() - t0, reply

    @staticmethod
    def request(p: subprocess.Popen, req: dict, timeout: float) -> Optional[dict]:
        """Send one request; None on timeout or a dead worker."""
        try:
            p.stdin.write((json.dumps(req) + "\n").encode())
            p.stdin.flush()
        except BrokenPipeError:
            return None
        ready, _, _ = select.select([p.stdout], [], [], timeout)
        if not ready:
            return None
        line = p.stdout.readline()
        return json.loads(line) if line else None

    def stop_worker(self, p: subprocess.Popen, timeout: float = 10.0) -> int:
        """Close the worker's input, reap it; return its maxrss in KiB."""
        try:
            p.stdin.close()
        except BrokenPipeError:
            pass
        _, maxrss, _ = self._reap(p, timeout)
        p.stdout.close()
        return maxrss

    def run_call(self, worker, op: dict, traced: bool):
        """One library op: (latency, reply or None on a timeout or crash)."""
        req = {"call": op["call"], "spec": op["spec"], "args": op["args"]}
        timeout = self.timeout * (TRACE_TIMEOUT_FACTOR if traced else 1.0)
        t0 = time.perf_counter()
        reply = self.request(worker, req, timeout)
        return time.perf_counter() - t0, reply

    def check_call(self, op: dict, reply: Optional[dict]) -> Optional[str]:
        if reply is None:
            return "timeout or worker crash"
        if not reply["ok"]:
            return reply["error"]
        if op["call"] == "batch":
            for expect, result in zip(op["expect"]["each"], reply["result"]):
                why = check_fields(expect, result)
                if why:
                    return why
            return None
        return check_fields(op["expect"], reply["result"])

    def measure_certify(self) -> dict:
        """Each pass is one session: a fresh worker runs every op once."""
        times = []
        for _ in range(SETUP_REPEATS):
            self.ref_times.append(reference_s())
            p, ready_s, _ = self.spawn_worker(False)
            times.append(ready_s)
            self.stop_worker(p)
        samples: List[float] = []
        passed, peak, wall = 0, 0, 0.0
        for _ in range(self.passes):
            self.ref_times.append(reference_s())
            worker, ready_s, _ = self.spawn_worker(False)
            times.append(ready_s)
            start = time.perf_counter()
            for op in self.ops:
                ref = reference_s()
                self.ref_times.append(ref)
                start += ref  # the reference is not part of the measured wall time
                latency, reply = self.run_call(worker, op, False)
                why = self.check_call(op, reply)
                if why:
                    self.fail(op, why)
                if reply is None:  # replace a hung or dead worker
                    peak = max(peak, self.stop_worker(worker, 0.0))
                    worker, _, _ = self.spawn_worker(False)
                passed += why is None
                samples.append(latency)
            wall += time.perf_counter() - start
            peak = max(peak, self.stop_worker(worker))
        return end_to_end(samples, passed, wall, statistics.median(times), peak,
                          self.ref_times)

    def trace_certify(self) -> dict:
        """One session, each op on an untraced and a traced worker."""
        plain, _, _ = self.spawn_worker(False)
        traced, ready_s, ready = self.spawn_worker(True)
        startup = {"ready_s": ready_s, "import_s": ready["import_s"], "mpmath_s": ready["mpmath_s"]}
        rows = [{"op": None, "plain": None, "traced": 0.0,
                 "summary": dict(ready["trace"], startup=startup)}]
        for op in self.ops:
            t_plain, r_plain = self.run_call(plain, op, False)
            t_traced, r_traced = self.run_call(traced, op, True)
            why = self.check_call(op, r_plain) or self.check_call(op, r_traced)
            if why:
                self.fail(op, why)
                if r_plain is None or r_traced is None:
                    break  # a hung worker: the failure is reported, the rows so far stand
            rows.append({"op": op, "plain": t_plain, "traced": t_traced,
                         "summary": (r_traced or {}).get("trace", {})})
        for p in (plain, traced):
            self.stop_worker(p, 0.0 if self.failures else 10.0)
        return per_layer(rows, self.workload)


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------


def check_fields(expect: dict, doc: dict) -> Optional[str]:
    """Compare an op's output fields with its independently derived answer."""
    for key, want in expect.items():
        if key == "s0":
            got = doc["s0_general"]
            if not abs(got - want) <= 1e-9 * abs(want):
                return f"s0 {got!r} != closed form {want!r}"
        elif key == "entropy":
            kind, l1, l2 = want
            res = answers.entropy_residual(kind, doc["analytic_root"]["value"], l1, l2)
            if not abs(res) <= 1e-12:
                return f"entropy root residual {res!r}"
        elif key == "members":
            got = doc["members"]
            got = len(got) if isinstance(got, list) else got
            if got != want:
                return f"members {got} != {want}"
        elif key == "witness_diameter_gt":
            if not (doc.get("witness_diameter") or -1) > want:
                return f"witness diameter {doc.get('witness_diameter')} not > {want}"
        elif doc.get(key) != want:
            return f"{key} {doc.get(key)!r} != {want!r}"
    return None


def quantile(sorted_values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by Beta((n+1)q, (n+1)(1-q)).  Op costs come in
    clusters, and a single order statistic jumps from one cluster to the
    next from run to run; the weighted mean moves less."""
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    return sum(float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * v
               for i, v in enumerate(sorted_values))


def tail_quantile(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    return max(0.5, 1.0 - TAIL_BEYOND / n)


def end_to_end(samples: List[float], passed: int, wall: float, setup: float,
               peak_kib: int, ref_times: List[float]) -> dict:
    """Metrics of an untraced run, over the latencies of every pass, with
    the times at the reference speed (see the module docstring)."""
    samples = sorted(samples)
    q = tail_quantile(len(samples))
    p50, tail, ops = quantile(samples, 0.5), quantile(samples, q), passed / wall
    speed = REF_NOMINAL_S / statistics.median(ref_times)
    print(f"# wall clock: setup_s {setup:.6g} latency_p50_s {p50:.6g} latency_tail_s {tail:.6g} "
          f"ops_per_s {ops:.6g}; reference speed factor {speed:.6g} over {len(ref_times)} "
          "references", flush=True)
    print(f"# latency_tail_s is the Harrell-Davis p{100 * q:g} over {len(samples)} samples",
          flush=True)
    return {
        "setup_s": (setup * speed, "s"),
        "latency_p50_s": (p50 * speed, "s"),
        "latency_tail_s": (tail * speed, "s"),
        "ops_per_s": (ops / speed, "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "pass_ratio": (passed / len(samples), "ratio"),
    }


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when the ops
    do not span two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def per_layer(rows: List[dict], workload: str) -> dict:
    layer = {name: [0, 0.0, 0] for name in LAYERS}
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    startup = {"calls": 0, "ready_s": 0.0, "import_s": 0.0, "mpmath_s": 0.0}
    slope_points = {metric: [] for metric in SLOPES}
    for row in rows:
        summary = row["summary"]
        for name, (calls, self_s, _) in summary.get("spans", {}).items():
            lay = layer[name.split(".", 1)[0]]
            lay[0] += calls
            lay[1] += self_s
            agg = spans.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        for lay_name, n in summary.get("errors", {}).items():
            layer[lay_name][2] += n
        for key, n in summary.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + n
        if "startup" in summary:
            startup["calls"] += 1
            for key in ("ready_s", "import_s", "mpmath_s"):
                startup[key] += summary["startup"][key]
        op = row["op"]
        if op is not None:
            for metric, (name, kinds) in SLOPES.items():
                kind, size = op["size"]
                total = summary.get("spans", {}).get(name, [0, 0.0, 0.0])[2]
                if kind == kinds[workload] and total > 0:
                    slope_points[metric].append((size, total))

    def span(name, i):
        return spans.get(name, [0, 0.0])[i]

    m: Dict[str, tuple] = {}
    for name, (calls, self_s, errors) in layer.items():
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.errors"] = (errors, "count")
    m["startup.calls"] = (startup["calls"], "count")
    m["startup.self_s"] = (startup["ready_s"], "s")
    m["startup.errors"] = (0, "count")
    m["startup.import_s"] = (startup["import_s"], "s")
    m["startup.mpmath_s"] = (startup["mpmath_s"], "s")
    m["words.letters_out"] = (counters.get("words.letters_out", 0), "count")
    m["oracles.coset_rep.calls"] = (span(COSET_REP, 0), "count")
    m["oracles.coset_rep.self_s"] = (span(COSET_REP, 1), "s")
    nf_calls = span(NORMAL_FORM, 0)
    m["splitting.normal_form.calls"] = (nf_calls, "count")
    m["splitting.normal_form.self_s"] = (span(NORMAL_FORM, 1), "s")
    m["splitting.normal_form.letters_in"] = (
        counters.get("splitting.normal_form.letters_in", 0), "count")
    m["splitting.normal_form.repeat_ratio"] = (
        counters.get("splitting.normal_form.repeats", 0) / nf_calls if nf_calls else 0.0, "ratio")
    m["splitting.load_spec.self_s"] = (span("splitting.load_spec", 1), "s")
    m["tree.classify.self_s"] = (span("tree.classify", 1), "s")
    m["tree.geodesic.self_s"] = (span("tree.geodesic", 1), "s")
    m["tree.vertex_of.calls"] = (span("tree.vertex_of", 0), "count")
    m["tree.fixed_set.self_s"] = (span("tree.fixed_set", 1), "s")
    enumerated = counters.get("tree.acyl.words_enumerated", 0)
    m["tree.acyl.words_enumerated"] = (enumerated, "count")
    m["tree.acyl.dedup_ratio"] = (
        counters.get("tree.acyl.distinct_forms", 0) / enumerated if enumerated else 0.0, "ratio")
    m["freeness.certify.calls"] = (sum(span(c, 0) for c in CERTIFY), "count")
    m["freeness.certify.self_s"] = (sum(span(c, 1) for c in CERTIFY), "s")
    m["freeness.certify.nodes"] = (counters.get("freeness.certify.nodes", 0), "count")
    m["bounds.high_precision_calls"] = (counters.get("bounds.high_precision_calls", 0), "count")
    for metric, points in slope_points.items():
        m[metric] = (_slope(points), "exponent")
    twins = [r for r in rows if r["plain"] is not None]
    plain = sum(r["plain"] for r in twins)
    m["trace.overhead_ratio"] = (sum(r["traced"] for r in twins) / plain if plain else 0.0, "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "treegroups", "cli.py")):
        print("error: run from the repository root; src/treegroups is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        if args.workload in CLI_WORKLOADS:
            metrics = bench.trace_cli() if args.trace else bench.measure_cli()
        else:
            metrics = bench.trace_certify() if args.trace else bench.measure_certify()
    finally:
        bench.close()

    for why in bench.failures:
        print(f"# FAILED {why}", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = len(bench.ops) * (1 if args.trace else bench.passes)
    result = {"correct": not bench.failures, "attempted": attempted,
              "failed": min(len(bench.failures), attempted),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
