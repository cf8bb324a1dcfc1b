"""Layered benchmark of graphideals.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop driven by one client: the next request is
sent when the previous one has returned.  Inputs come from ``--seed``
(see ``inputs.py``); the program sees only the generated graphs or their
JSON documents.

    decompose-scaling  one request = one graph of a scaling series through
                       split_decompose(weighted_edge_ideal(g)) and then
                       cover_decomposition(g); both must give the same
                       components.
    verify-corpus      one request = verify.run_suite on one of 240 random
                       graphs with 3-6 vertices; every check must pass.
    cli-mix            one request = a fresh
                       ``python3 -m graphideals <cmd> - --format json``
                       process reading its document from stdin; it must
                       exit 0 with the payload that an in-process run of
                       the same argv gave before timing started.

End-to-end metrics (``--trace 0``) are measured without tracing.  Every
request runs once, then the requests repeat in turn until ``--seconds``
have gone by (see ``run_fair``), so each is sampled several times.

Every time is scaled to a reference host speed (see ``HostSpeed``): a
fixed pure-Python job is timed between requests, and each request time
is multiplied by PROBE_REF_S over the job's time around it.  The unscaled
figures are in the report line.  Every run reports all the metrics, each
over the workload's own requests:

    setup_s                  median over 11 fresh processes of importing
                             graphideals and building and validating the
                             workload's inputs.
    split_components_per_s   geometric mean over the requests that run the
                             split route of components output per second of
                             the request's median time: the route call
                             itself on decompose-scaling, whole run_suite
                             requests on verify-corpus (they run both
                             routes, so the covers metric reads the same
                             there), ``decompose --method split`` processes
                             on cli-mix.
    covers_components_per_s  the same for the covers route
                             (``decompose --method covers`` on cli-mix).
    verify_graphs_per_s      the same for graphs cross-checked: requests on
                             decompose-scaling and verify-corpus,
                             ``verify`` processes on cli-mix.
    cli_p50_ms, cli_p90_ms   median and 90th percentile over the requests
                             of their median latency.
    cli_requests_per_s       the same geometric mean for requests.
    peak_rss_mb              peak resident set size of this process, or of
                             the largest request process on cli-mix.

The geometric means weigh every request the same, whatever its size, so
the many cheap requests of a run steady the figure and a speed-up on one
graph family moves it as much as one on another.

Failed requests are counted in the ``failed`` field of the result, never
dropped or retried; the error rate is ``failed / attempted``.

With ``--trace 1`` the run first measures untraced passes over the
request list for a quarter of ``--seconds``, then at least two traced
passes for half of it (see ``tracing.py``), and reports the per-layer
metrics named in BENCHMARK.json, unscaled, the tracing overhead against
the untraced passes, and the self time of every layer.  Counts are
checked to be identical in every traced pass.

The line before the result is a JSON report: a stamp (Python version,
kernels, nproc, seed, commit, tracing), per-graph rows and the counts.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "graphideals")

WORKLOADS = ("decompose-scaling", "verify-corpus", "cli-mix")
SETUP_PROBES = 11
PROC_PROBES = 5
REQUEST_TIMEOUT_S = 120
PROBE_REF_S = 0.001  # reference time of the HostSpeed job
TIME_KEYS = ("seconds", "split_s", "covers_s")
# per-graph rows the traced decompose-scaling run prints
ROW_LABELS = ("C12", "C16", "K8", "G10.1")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


class Clock:
    """Untraced stand-in for tracing.Tracer: times requests, nothing else."""

    def install(self):
        pass

    def uninstall(self):
        pass

    def request(self, root, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0


class HostSpeed:
    """A fixed pure-Python job, timed between requests.

    A shared host drifts in speed, on a 2-vCPU virtual machine by a factor
    of two or more within minutes, alike for every process on it.  So every request
    time is reported scaled by PROBE_REF_S over the mean probe time just
    before and just after the request: its time on a host where the job
    takes PROBE_REF_S.  The job sorts, hashes and compares small tuples, as
    graphideals does, without calling graphideals, so a change to the
    library moves scaled times as it moves raw ones."""

    EVERY_S = 0.1  # least time between two probes

    def __init__(self):
        import random

        rng = random.Random(12050)
        self.vectors = [tuple(rng.randint(0, 6) for _ in range(6)) for _ in range(300)]
        self.samples = []
        self._at = float("-inf")

    def _job(self):
        kept = []
        for v in sorted(set(self.vectors)):
            if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
                kept.append(v)
        by_head = {}
        for v in self.vectors:
            by_head.setdefault(v[0], []).append(v)
        return len(kept), len(by_head)

    def probe(self):
        """Seconds of the job, the least of three runs; measured again only
        when EVERY_S has gone by since the last probe."""
        if time.perf_counter() - self._at >= self.EVERY_S:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                self._job()
                times.append(time.perf_counter() - t0)
            self.samples.append(min(times))
            self._at = time.perf_counter()
        return self.samples[-1]

    def stats(self):
        v = sorted(self.samples)
        return {"probes": len(v), "min_s": v[0], "median_s": statistics.median(v), "max_s": v[-1]}


def scaled(rec):
    """``rec`` with its times scaled to the reference host speed."""
    factor = PROBE_REF_S / rec["probe_s"]
    return rec | {k: rec[k] * factor for k in TIME_KEYS if k in rec}


def spawn(argv, stdin_text):
    """Run a child to completion; returns (exit code, stdout, stderr,
    seconds, peak RSS in KiB).  The child is reaped with wait4 so its own
    resource usage is known."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    )
    watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(stdin_text.encode())
            proc.stdin.close()
        except BrokenPipeError:  # the child exited early; its exit code tells
            pass
        # stderr stays far below a pipe buffer, so reading in turn is safe
        out = proc.stdout.read().decode()
        err = proc.stderr.read().decode()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, time.perf_counter() - t0, usage.ru_maxrss


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def request_times(records, time_key):
    """{request index: median ``time_key`` over its correct repetitions}."""
    times = {}
    for r in records:
        if r["ok"] and time_key in r:
            times.setdefault(r["i"], []).append(r[time_key])
    return {i: statistics.median(v) for i, v in times.items()}


def geo_rate(records, work_key, time_key):
    """Geometric mean over the requests that do ``work_key`` of their work
    per second of median time; every request weighs the same whatever its
    size."""
    work = {r["i"]: r[work_key] for r in records if r["ok"] and work_key in r}
    times = request_times(records, time_key)
    if not work:
        return 0.0
    return statistics.geometric_mean(work[i] / times[i] for i in work)


LATENCY_METRICS = (
    "cli_p50_ms",
    "cli_p90_ms",
    "cli_requests_per_s",
    "split_components_per_s",
    "covers_components_per_s",
    "verify_graphs_per_s",
)


def end_to_end_metrics(work, records):
    # percentiles over the requests, not over all samples: the number of
    # samples of each request varies between runs, and on a series with
    # gaps in cost a percentile over all samples would jump across a gap
    lat = sorted(request_times(records, "seconds").values())
    out = {"peak_rss_mb": work.peak_rss_mb(records)}
    if not lat:  # every request failed, which the result line reports
        return dict.fromkeys(LATENCY_METRICS, 0.0) | out
    return out | {
        "cli_p50_ms": statistics.median(lat) * 1000,
        "cli_p90_ms": percentile(lat, 90) * 1000,
        "cli_requests_per_s": statistics.geometric_mean(1 / t for t in lat),
        "split_components_per_s": geo_rate(records, "split_n", "split_s"),
        "covers_components_per_s": geo_rate(records, "covers_n", "covers_s"),
        "verify_graphs_per_s": geo_rate(records, "verified", "seconds"),
    }


def split_route(g):
    from graphideals import decompose, graphs

    return decompose.split_decompose(graphs.weighted_edge_ideal(g))


def peak_rss_self_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# workloads


class DecomposeScaling:
    name = "decompose-scaling"
    in_process = True

    def __init__(self, seed):
        import inputs

        self.series = inputs.decompose_series(seed)
        self.components = {}

    def graphs(self):
        return [g for _, _, g in self.series]

    def prepare(self):
        pass

    def size(self):
        return len(self.series)

    def run_one(self, i, tracer):
        from graphideals import graphs

        family, label, g = self.series[i]
        rec = {"i": i, "label": label, "family": family, "ok": False}
        t0 = time.perf_counter()
        try:
            s, rec["split_s"] = tracer.request(f"split|{family}|{label}", split_route, g)
            c, rec["covers_s"] = tracer.request(
                f"covers|{family}|{label}", graphs.cover_decomposition, g
            )
            rec["split_n"], rec["covers_n"] = len(s), len(c)
            if s.components != c.components:
                rec["error"] = "split and covers routes disagree"
            elif self.components.setdefault(label, len(s)) != len(s):
                rec["error"] = "component count changed between requests"
            else:
                rec["ok"] = True
                rec["verified"] = 1
        except Exception as exc:  # a failed request is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
        return rec

    def peak_rss_mb(self, records):
        return peak_rss_self_mb()

    def computed_counts(self):
        import inputs

        space = {label: inputs.candidate_space(g) for _, label, g in self.series}
        return {"covers.candidate_space": space}

    def layer_metrics(self, stats, passes, counts):
        out = {}
        for route in ("split", "covers"):
            for family in {family for family, _, _ in self.series}:
                total = sum(
                    rec[tracing.TOTAL]
                    for path, rec in stats.items()
                    if len(path) == 1 and path[0].startswith(f"{route}|{family}|")
                )
                out[f"{route}_s.{family}"] = total / passes
        space = sum(counts["covers.candidate_space"].values())
        out["covers.candidate_space"] = space
        out["covers.minimal_per_candidate"] = sum(self.components.values()) / space
        out["decompose.components"] = sum(self.components.values())
        return out

    def rows(self, stats, passes, counts):
        by_label = {label: family for family, label, _ in self.series}
        rows = []
        for label in ROW_LABELS:
            family = by_label[label]
            row = {"graph": label, "family": family, "components": self.components.get(label)}
            for route in ("split", "covers"):
                rec = stats.get((f"{route}|{family}|{label}",))
                row[f"{route}_ms"] = rec[tracing.TOTAL] / passes * 1000 if rec else None
            root = f"split|{family}|{label}"
            under = [
                rec[tracing.CALLS]
                for path, rec in stats.items()
                if path[0] == root and path[-1] == "kernels.minimalize"
                and "decompose.split_decompose" in path
            ]
            row["split.nodes_expanded"] = sum(under) / passes / 2
            row["covers.candidate_space (computed)"] = counts["covers.candidate_space"][label]
            rows.append(row)
        return rows


class VerifyCorpus:
    name = "verify-corpus"
    in_process = True

    def __init__(self, seed):
        import inputs

        self.corpus = inputs.verify_corpus(seed)
        self.components = {}

    def graphs(self):
        return [g for _, g in self.corpus]

    def prepare(self):
        from graphideals import decompose, graphs

        for label, g in self.corpus:
            ideal = graphs.weighted_edge_ideal(g)
            self.components[label] = len(decompose.split_decompose(ideal))

    def size(self):
        return len(self.corpus)

    def run_one(self, i, tracer):
        from graphideals import verify

        label, g = self.corpus[i]
        rec = {"i": i, "label": label, "ok": False}
        t0 = time.perf_counter()
        try:
            (results, count), _ = tracer.request(f"verify|{label}", verify.run_suite, [g], i)
            failed = [r.name for r in results if not r.passed]
            if count != 1 or failed:
                rec["error"] = f"checks failed: {failed}"
            else:
                rec["ok"] = True
        except Exception as exc:  # a failed request is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
        if rec["ok"]:
            # run_suite runs both routes on the graph: the request times each
            rec["split_n"] = rec["covers_n"] = self.components[label]
            rec["split_s"] = rec["covers_s"] = rec["seconds"]
            rec["verified"] = 1
        return rec

    def peak_rss_mb(self, records):
        return peak_rss_self_mb()

    def computed_counts(self):
        import inputs

        return {
            "covers.candidate_space": {
                label: inputs.candidate_space(g) for label, g in self.corpus
            }
        }

    def layer_metrics(self, stats, passes, counts):
        space = sum(counts["covers.candidate_space"].values())
        return {
            "covers.candidate_space": space,
            "covers.minimal_per_candidate": sum(self.components.values()) / space,
            "decompose.components": sum(self.components.values()),
        }

    def rows(self, stats, passes, counts):
        return []


class CliMix:
    name = "cli-mix"
    in_process = False  # each request process installs its own tracer

    def __init__(self, seed):
        import inputs

        self.requests = [
            (label, argv, g, inputs.document(g)) for label, argv, g in inputs.cli_requests(seed)
        ]
        self.expected = {}

    def graphs(self):
        return [g for _, _, g, _ in self.requests]

    def prepare(self):
        """Reference payloads from in-process runs of the same argv."""
        import contextlib
        import io

        from graphideals import cli

        for label, argv, _, doc in self.requests:
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(doc)
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(argv))
                payload = json.loads(out.getvalue())["payload"] if code == 0 else None
            except Exception:  # no reference: every run of this request fails
                payload = None
            finally:
                sys.stdin = saved
            self.expected[label] = payload

    def size(self):
        return len(self.requests)

    def run_one(self, i, tracer):
        label, argv, _, doc = self.requests[i]
        traced = isinstance(tracer, tracing.Tracer)
        rec = {"i": i, "label": label, "command": argv[0], "ok": False}
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "graphideals", *argv]
        code, out, err, rec["seconds"], rec["rss_kib"] = spawn(cmd, doc)
        try:
            if traced:
                child = json.loads(out)
                self._merge_trace(tracer, label, rec["seconds"], child)
                code, out, err = child["exit"], child["stdout"], child["stderr"]
            payload = json.loads(out)["payload"] if code == 0 else None
        except ValueError as exc:
            payload = None
            err = f"unreadable output: {exc}; stderr: {err}"
        expected = self.expected[label]
        if code != 0:
            rec["error"] = f"exit {code}: {err.strip()[-300:]}"
        elif expected is None or payload != expected:
            rec["error"] = "payload differs from the in-process reference"
        else:
            rec["ok"] = True
            if label.startswith("decompose-split"):
                rec["split_n"], rec["split_s"] = len(payload["components"]), rec["seconds"]
            elif label.startswith("decompose-covers"):
                rec["covers_n"], rec["covers_s"] = len(payload["components"]), rec["seconds"]
            elif label.startswith("verify"):
                rec["verified"] = payload["graphs"]
        return rec

    @staticmethod
    def _merge_trace(tracer, label, wall, child):
        startup = wall - child["import_s"] - child["main_s"]
        rows = [
            [[], 1, wall, 0.0, 0, 0],
            [["proc.startup"], 1, startup, startup, 0, 0],
            [["proc.import"], 1, child["import_s"], child["import_s"], 0, 0],
        ]
        tracing.merge(tracer.stats, rows + child["stats"], prefix=(label,))

    def peak_rss_mb(self, records):
        return max(r["rss_kib"] for r in records) / 1024

    def computed_counts(self):
        import inputs

        return {
            "classify.suspension_candidates": {
                label: inputs.suspension_candidates(g)
                for label, argv, g, _ in self.requests
                if argv[0] == "classify"
            }
        }

    def layer_metrics(self, stats, passes, counts):
        out = {}
        split_covers = 0.0
        for label, argv, _, _ in self.requests:
            run_s = tracing.inclusive(stats, "cli.run", under=label)[1]
            load_s = tracing.inclusive(stats, "cli._load_graph", under=label)[1]
            key = f"cli.run_s.{argv[0]}"
            out[key] = out.get(key, 0.0) + (run_s - load_s) / passes
            if label.startswith("decompose-split"):
                split_covers += tracing.inclusive(stats, "graphs.cover_decomposition", under=label)[1]
        out["cli.split_request_covers_s"] = split_covers / passes
        out["classify.suspension_candidates"] = sum(
            counts["classify.suspension_candidates"].values()
        )
        out["proc.interpreter_s"] = statistics.median(
            spawn([sys.executable, "-c", "pass"], "")[3] for _ in range(PROC_PROBES)
        )
        probe = (
            "import time; t = time.perf_counter(); import graphideals.cli; "
            "print(time.perf_counter() - t)"
        )
        out["proc.import_s"] = statistics.median(
            float(spawn([sys.executable, "-c", probe], "")[1]) for _ in range(PROC_PROBES)
        )
        return out

    def rows(self, stats, passes, counts):
        rows = []
        for label, _, g, _ in self.requests:
            if not label.startswith("classify.star"):
                continue
            rec = stats.get((label,))
            rows.append(
                {
                    "graph": label.partition(".")[2],
                    "leaves": g.vertex_count - 1,
                    "request_ms": rec[tracing.TOTAL] / passes * 1000 if rec else None,
                    "classify_auto_ms": tracing.inclusive(stats, "classify.classify_auto", label)[1]
                    / passes * 1000,
                    "recognize_suspensions_ms": tracing.inclusive(
                        stats, "classify.recognize_suspensions", label
                    )[1] / passes * 1000,
                    "suspension_candidates (computed)": counts[
                        "classify.suspension_candidates"
                    ][label],
                }
            )
        return sorted(rows, key=lambda r: r["leaves"])


WORKLOAD_CLASSES = {cls.name: cls for cls in (DecomposeScaling, VerifyCorpus, CliMix)}


# --------------------------------------------------------------------------
# set-up, stamp, raw kernels


def setup_probe(workload, seed):
    """Import graphideals, then build and validate the workload's inputs;
    returns the seconds taken.  Run in a fresh process."""
    t0 = time.perf_counter()
    import graphideals.cli  # noqa: F401
    import inputs

    inputs.validate_all(WORKLOAD_CLASSES[workload](seed).graphs())
    return time.perf_counter() - t0


def measure_setup(workload, seed, host):
    """Median set-up seconds over SETUP_PROBES fresh processes, raw and
    scaled to the reference host speed by the probe before each process."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    raw, at_ref = [], []
    for i in range(SETUP_PROBES + 1):
        probe_s = host.probe()
        code, out, err, _, _ = spawn(argv, "")
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        if i:  # the first probe compiles bytecode and is discarded
            raw.append(float(out))
            at_ref.append(float(out) * PROBE_REF_S / probe_s)
    return statistics.median(raw), statistics.median(at_ref)


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def stamp(args):
    from graphideals import kernels

    return {
        "python": platform.python_version(),
        "kernels_active": kernels.active(),
        "kernels_available": list(kernels.available()),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "trace": bool(args.trace),
        "workload": args.workload,
        "seconds": args.seconds,
    }


def raw_kernel_metrics(seed, repeats=7):
    """The raw kernel workloads of benchmarks/bench_kernels.py, timed under
    every importable kernel implementation (median of ``repeats``)."""
    import random

    from graphideals import kernels

    rng = random.Random(seed)

    def rows(count, dim, max_exp):
        return [tuple(rng.randint(0, max_exp) for _ in range(dim)) for _ in range(count)]

    vec_sets = [rows(400, 6, 6) for _ in range(6)]
    ideal_pairs = [
        tuple(kernels.minimalize([r for r in rows(12, 5, 5) if any(r)]) for _ in range(2))
        for _ in range(20)
    ]
    jobs = {
        "minimalize": lambda: [kernels.minimalize(vs) for vs in vec_sets],
        "intersect_rows": lambda: [kernels.intersect_rows(a, b) for a, b in ideal_pairs],
    }
    before = kernels.active()
    out = {}
    try:
        for impl in kernels.available():
            kernels.use(impl)
            for job, fn in jobs.items():
                fn()
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    fn()
                    times.append(time.perf_counter() - t0)
                out[f"kernels.raw.{impl}.{job}_s"] = statistics.median(times)
    finally:
        kernels.use(before)
    return out


# --------------------------------------------------------------------------
# runs


def run_pass(work, tracer):
    return [work.run_one(i, tracer) for i in range(work.size())]


def run_fair(work, seconds, host):
    """Untraced requests until ``seconds`` have gone by.

    Every request runs once in order.  After that the next request is the
    one with the fewest runs, ties going to the one with the least time
    spent on it, so slow requests get as many samples as cheap ones.  A
    request whose first run took more than its share of the run
    (``seconds`` over the number of requests) is not repeated, so a single
    slow one cannot fill the run.  Each record holds the mean of the host
    probe times taken just before and just after it."""
    start = time.perf_counter()
    n = work.size()
    reps, spent, records = [0] * n, [0.0] * n, []

    def run(i):
        before = host.probe()
        rec = work.run_one(i, Clock())
        rec["probe_s"] = (before + host.probe()) / 2
        records.append(rec)
        reps[i] += 1
        spent[i] += rec["seconds"]

    for i in range(n):
        run(i)
    share = seconds / n
    again = [i for i in range(n) if spent[i] <= share] or list(range(n))
    while time.perf_counter() - start < seconds:
        run(min(again, key=lambda j: (reps[j], spent[j])))
    return records


def run_passes(work, tracer_factory, seconds, min_passes):
    """Whole passes until ``seconds`` have gone by; [(records, wall, tracer)]."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        tracer = tracer_factory()
        if work.in_process:
            tracer.install()
        t0 = time.perf_counter()
        try:
            records = run_pass(work, tracer)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        passes.append((records, wall, tracer))
    return passes


def span_metrics(stats, passes):
    def incl(name, under=None):
        return tracing.inclusive(stats, name, under)

    calls, secs, vin, vout = incl("kernels.minimalize")
    out = {
        "graphs.ideal_build_s": incl("graphs.weighted_edge_ideal")[1],
        "decompose.split_self_s": tracing.self_time(stats, "decompose.split_decompose"),
        "kernels.minimalize_calls": calls,
        "kernels.minimalize_s": secs,
        "split.nodes_expanded": incl("kernels.minimalize", "decompose.split_decompose")[0] / 2,
        "graphs.enumerate_covers_s": incl("graphs.enumerate_minimal_covers")[1],
        "verify.check_graph_s": incl("verify.check_graph")[1],
        "decompose.component_ideal_calls": incl("decompose.IrreducibleComponent.ideal")[0],
        "decompose.component_ideal_s": incl("decompose.IrreducibleComponent.ideal")[1],
        "monomials.ideal_leq_s": incl("monomials.ideal_leq")[1],
        "decompose.intersection_s": incl("decompose.Decomposition.intersection")[1],
        "graphs.minimize_cover_s": incl("graphs.minimize_cover")[1],
        "graphs.minimal_vertex_covers_s": incl("graphs.minimal_vertex_covers")[1],
        "cli.parse_validate_s": incl("cli._load_graph")[1],
        "cli.render_s": incl("cli.render")[1],
        "classify.classify_auto_s": incl("classify.classify_auto")[1],
        "classify.recognize_suspensions_s": incl("classify.recognize_suspensions")[1],
    }
    out = {k: v / passes for k, v in out.items()}
    out["kernels.minimalize_kept_ratio"] = vout / vin if vin else 0.0
    return out


def pass_counts(work, stats, records):
    """Counts that must repeat exactly in every traced pass."""
    counts = {
        "kernels.minimalize_calls": tracing.inclusive(stats, "kernels.minimalize")[0],
        "split.nodes_expanded": tracing.inclusive(
            stats, "kernels.minimalize", "decompose.split_decompose"
        )[0] / 2,
        "components": {
            r["label"]: [r.get(k) for k in ("split_n", "covers_n", "components")]
            for r in records
        },
    }
    counts.update(work.computed_counts())
    return counts


def traced_run(work, args, report):
    untraced = run_passes(work, Clock, args.seconds / 4, 1)
    traced = run_passes(work, tracing.Tracer, args.seconds / 2, 2)
    stats = {}
    for _, _, tracer in traced:
        tracing.merge(stats, tracer.export())
    n = len(traced)
    counts = [pass_counts(work, t.stats, recs) for recs, _, t in traced]
    stable = all(c == counts[0] for c in counts[1:])

    wall_untraced = statistics.mean(w for _, w, _ in untraced)
    wall_traced = statistics.mean(w for _, w, _ in traced)
    layers = tracing.layer_self_times(stats)
    roots = sum(rec[tracing.TOTAL] for path, rec in stats.items() if len(path) == 1)
    layers["bench"] = layers.get("bench", 0.0) + wall_traced * n - roots
    layer_self = {k: v / n for k, v in layers.items()}

    metrics = span_metrics(stats, n)
    metrics.update(work.layer_metrics(stats, n, counts[0]))
    metrics.update(raw_kernel_metrics(args.seed))
    metrics["trace.overhead_ratio"] = wall_traced / wall_untraced - 1
    metrics["trace.layer_share"] = 1 - layer_self["bench"] / wall_traced
    for layer in tracing.MODULES + ("proc",):
        metrics[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    metrics["self_s.bench"] = layer_self["bench"]

    report.update(
        {
            "passes": {"untraced": len(untraced), "traced": n},
            "wall_s": {"untraced_pass": wall_untraced, "traced_pass": wall_traced},
            "layer_self_s": layer_self,
            "counts_identical_across_passes": stable,
            "counts": {k: v for k, v in counts[0].items() if k != "components"},
            "components_per_graph": counts[0]["components"],
            "rows": work.rows(stats, n, counts[0]),
        }
    )
    records = [r for recs, _, _ in untraced + traced for r in recs]
    return records, metrics, stable


def untraced_run(work, args, report):
    host = HostSpeed()
    records = run_fair(work, args.seconds, host)
    metrics = end_to_end_metrics(work, [scaled(r) for r in records])
    raw = end_to_end_metrics(work, records)
    raw["setup_s"], metrics["setup_s"] = measure_setup(args.workload, args.seed, host)
    counts = [0] * work.size()
    for r in records:
        counts[r["i"]] += 1
    report["samples"] = len(records)
    report["repetitions_per_request"] = {"min": min(counts), "median": statistics.median(counts)}
    report["host"] = host.stats() | {"reference_s": PROBE_REF_S}
    report["unscaled_metrics"] = raw
    return records, metrics, True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no graphideals source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    import graphideals

    if not os.path.abspath(graphideals.__file__).startswith(PACKAGE + os.sep):
        print(f"error: graphideals imported from {graphideals.__file__}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = WORKLOAD_CLASSES[args.workload](args.seed)
    work.prepare()
    report = {"stamp": stamp(args)}
    run = traced_run if args.trace else untraced_run
    records, metrics, counts_stable = run(work, args, report)

    failed = [r for r in records if not r["ok"]]
    report["error_rate"] = len(failed) / len(records)
    report["errors"] = sorted({f"{r['label']}: {r['error']}" for r in failed})[:20]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if args.trace:
        # per-layer metrics of layers this workload does not exercise read 0
        report["not_exercised"] = missing
        metrics.update(dict.fromkeys(missing, 0.0))
    elif missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    result = {
        "correct": not failed and counts_stable,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
