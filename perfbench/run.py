"""raywin benchmark entry point.

    python3 perfbench/run.py --workload {img_backfill,events_backfill,online_fetch}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Inputs are generated from the seed and cached
under .perfbench_work/.  Set-up (Ray session start, the workload's own
set-up calls and one warm-up iteration) is repeated SETUP_REPEATS times and
its median reported as setup_s; the last session then runs fixed-work
iterations for --seconds.  Every output is checked against an oracle.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced iterations, prints the per-layer metrics and writes the span ledger
to .perfbench_work/ledger/.  Human-readable lines come first; the last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 2
# retry an attempt that Ray aborted at most this often, and only while a
# retry can still finish well inside three minutes
MAX_RETRIES = 2
RETRY_BEFORE_S = 90
# what Ray prints when one of its internal CHECKs fails, before it aborts
RAY_CHECK_BANNER = "You have likely discovered a bug in Ray"
# fixed, small object store: the runs stay well inside it and it keeps the
# session's footprint independent of the host's memory size
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["img_backfill", "events_backfill", "online_fetch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


class RaySession:
    """Ray started with num_cpus = nproc under a temp dir inside the
    checkout.  The dir is named through /proc/<pid>/cwd so Ray's AF_UNIX
    socket paths stay under the 107-byte limit however deep the checkout
    is; the same string marks every process the session starts."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        self.temp_dir = f"/proc/{os.getpid()}/cwd/.perfbench_work/ray"
        self.worker_peak_mb = 0.0

    def start(self) -> None:
        import logging

        import ray
        import ray.data

        ray.init(
            num_cpus=self.num_cpus,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.temp_dir,
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop(self) -> None:
        import ray

        from perfbench.host import descendants, reap, workers_peak_rss_mb

        procs = descendants(os.getpid())
        if ray.is_initialized():
            self.worker_peak_mb = max(self.worker_peak_mb, workers_peak_rss_mb(procs))
            ray.shutdown()
        reap(procs, self.temp_dir)

    def close(self) -> None:
        """Stop, then delete the temp dir.  Only at the end of the run: a
        later ray.init in the same process can reuse the first session's
        object-spilling directory."""
        self.stop()
        shutil.rmtree(self.temp_dir, ignore_errors=True)


def run(args) -> dict:
    from perfbench import host, metrics
    from perfbench.inputs import ensure_inputs
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    work = os.path.join(ROOT, ".perfbench_work")
    inputs = ensure_inputs(args.workload, args.seed, work)
    num_cpus = host.nproc()
    probe = host.HostProbe(num_cpus)
    tracer = Tracer() if args.trace else None
    session = RaySession(num_cpus)
    wl = WORKLOADS[args.workload](inputs, args.seed, work)
    cpus = sorted(os.sched_getaffinity(0))
    setup_s = []  # (wall, reference job wall around it)
    iters = []
    try:
        for r in range(SETUP_REPEATS):
            last = r == SETUP_REPEATS - 1
            ref0 = host.reference_s(cpus, wall=True)
            t0 = time.perf_counter()
            session.start()
            wl.setup(tracer if last else None)
            if not wl.ray_in_loop:
                session.stop()
            warm = wl.iterate()
            wall = time.perf_counter() - t0
            setup_s.append((wall, (ref0 + host.reference_s(cpus, wall=True)) / 2))
            if not last:
                session.stop()
        attempted, failed = warm.attempted, warm.failed
        errors = list(warm.errors)
        # Where vCPUs share physical cores, each runs at a different,
        # drifting speed, so a process's speed depends on where the scheduler
        # put it.  A loop that runs in the benchmark process alone is rotated
        # over every CPU of the affinity mask, the same number of times on
        # each, so every run sees the same mixture.  Ray loops are left to
        # the scheduler: pinning the workers serialises work the session
        # overlaps across CPUs (img_backfill ran 35% slower on a 4-vCPU VM),
        # and moving the Ray threads of the benchmark process trips a
        # reference-counting CHECK abort in Ray 2.49.  Around every
        # iteration the reference job reads the speed of the CPUs it ran on.
        per_cpu = 1 + args.trace  # in traced runs, one untraced and one traced
        round_len = per_cpu * (1 if wl.ray_in_loop else len(cpus))
        t_end = time.perf_counter() + args.seconds
        while (time.perf_counter() < t_end or len(iters) < wl.min_iterations * per_cpu
               or len(iters) % round_len):
            traced = bool(args.trace) and len(iters) % 2 == 1
            on = cpus
            if not wl.ray_in_loop:
                on = [cpus[len(iters) // per_cpu % len(cpus)]]
                host.pin([os.getpid()], set(on))
            gc.collect()  # each iteration starts from the same collector state
            procs = [os.getpid()] + host.ray_worker_pids(host.descendants(os.getpid()))
            ref0 = host.reference_s(on)
            cpu0 = host.cpu_seconds(procs)
            it = wl.iterate(tracer if traced else None)
            it.cpu_s = host.cpu_seconds(procs) - cpu0
            it.ref_s = (ref0 + host.reference_s(on)) / 2
            iters.append((traced, it))
        host.pin([os.getpid()], cpus)
        peak_rss_mb = host.own_peak_rss_mb()
        session.stop()
        peak_rss_mb += session.worker_peak_mb
        layer_extra = wl.microbench() if args.trace else {}
    finally:
        session.close()
        wl.close()
    problems = wl.check_reference()
    errors += problems
    for _, it in iters:
        attempted += it.attempted
        failed += it.failed
        errors += it.errors
    if problems:  # every output that matched a wrong reference is wrong too
        failed = attempted
    hostinfo = probe.finish()

    plain = [it for traced, it in iters if not traced]
    # The bounded figures are stated at the reference host speed.  The
    # VM's speed follows what the tenants sharing its physical cores do: it
    # changes by up to 2x within minutes, and CPU time stretches with it as
    # much as wall time does.  Each iteration's rate is scaled by the CPU
    # time of the fixed reference job run just before and after it, and
    # each set-up's wall by the reference job's wall around it, over
    # REFERENCE_NOMINAL_S: a program change moves the scaled figure, a
    # change of host speed mostly does not.  Medians over
    # iterations: one slow iteration moves them less than a total-over-total
    # rate.  The unscaled figures are printed beside them.
    nominal = host.REFERENCE_NOMINAL_S
    e2e = {
        "feature_rows_per_ref_cpu_s": (metrics.median(
            [it.rows / it.cpu_s * it.ref_s / nominal for it in plain if it.cpu_s > 0]),
            "rows/cpu-s"),
        "setup_s": (metrics.median([w * nominal / ref for w, ref in setup_s]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    rate = metrics.median([it.rows / it.wall_s for it in plain if it.wall_s > 0])
    lat = [s for it in plain for s in it.op_s]
    diag = {
        "feature_rows_per_cpu_s": (
            metrics.median([it.rows / it.cpu_s for it in plain if it.cpu_s > 0]), "rows/cpu-s"),
        "feature_rows_per_s": (rate, "rows/s"),
        "op_p50_ms": (metrics.percentile(lat, 50) * 1e3 if lat else 0.0, "ms"),
        "failed_share": (metrics.failed_share(failed, attempted), "ratio"),
        "iterations": (len(plain), "count"),
        "ops": (len(lat), "count"),
    }
    if args.workload == "online_fetch" and lat:
        p99, above, ok = metrics.tail(lat, 99)
        diag.update({
            "fetch_p50_ms": diag["op_p50_ms"],
            "fetch_p99_ms": (p99 * 1e3, "ms"),
            "fetch_samples": (len(lat), "count"),
            "fetch_samples_above_p99": (above, "count"),
            "fetch_rows_per_s": diag["feature_rows_per_s"],
            "ingest_rows_per_s": (sum(it.put_rows for it in plain)
                                  / max(sum(it.put_s for it in plain), 1e-9), "rows/s"),
            "repeat_key_share": (wl.repeat_key_share, "ratio"),
        })
        if not ok:
            print(f"warning: fetch_p99_ms has only {above} samples above it")
    diag["setup_runs_s"] = ([round(w, 3) for w, _ in setup_s], "s")
    diag["setup_reference_ms"] = ([round(ref * 1e3, 2) for _, ref in setup_s], "ms")
    diag["iteration_walls_s"] = ([round(it.wall_s, 4) for it in plain], "s")
    diag["iteration_cpu_s"] = ([round(it.cpu_s, 3) for it in plain], "s")
    diag["iteration_reference_ms"] = ([round(it.ref_s * 1e3, 2) for it in plain], "ms")
    for k, v in hostinfo.items():
        diag[f"host.{k}"] = (v, "")

    out_metrics = e2e
    if args.trace:
        traced = [it for t, it in iters if t]
        measured = {**wl.setup_layers, **layer_extra}
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        layer = {
            m["name"]: (measured[m["name"]] if m["name"] in measured else metrics.median(
                [it.layers[m["name"]] for it in traced if m["name"] in it.layers]), m["unit"])
            for m in per_layer
        }
        t_plain = metrics.median([it.wall_s for it in plain])
        layer["trace.overhead_share"] = (
            metrics.median([it.wall_s for it in traced]) / t_plain - 1 if t_plain else 0.0, "ratio")
        out_metrics = layer
        ledger = os.path.join(work, "ledger", f"{args.workload}-s{args.seed}.json")
        os.makedirs(os.path.dirname(ledger), exist_ok=True)
        tracer.write(ledger, {
            "workload": args.workload, "seed": args.seed, "host": hostinfo,
            "layers": {k: v for k, (v, _) in layer.items()},
            "iterations": [{"traced": t, "wall_s": it.wall_s, "rows": it.rows,
                            "layers": it.layers} for t, it in iters],
        })
        diag["ledger"] = (os.path.relpath(ledger, ROOT), "")
        for name, s in sorted(tracer.self_times().items()):
            diag[f"self_time.{name}"] = (s, "s")

    for name, (v, unit) in {**e2e, **diag, **(out_metrics if args.trace else {})}.items():
        print(f"{name} = {v} {unit}".rstrip())
    for e in errors[:20]:
        print(f"error: {e}")
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out_metrics.items()},
    }


def _attempt(args, conn, err_path) -> None:
    """Child side: send ("result", dict) or ("error", traceback); a child
    that ends without sending either died.  Its standard error goes to
    err_path, where the parent looks for the cause."""
    import traceback

    fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 2)
    os.close(fd)
    try:
        msg = ("result", run(args))
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        msg = ("error", traceback.format_exc())
    sys.stdout.flush()
    conn.send(msg)


def _set_child_subreaper() -> None:
    """Orphans of our children (Ray processes of a child that died) get
    reparented to this process, so they can be found and waited for."""
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "raywin", "__init__.py")):
        print(f"raywin sources not found under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the Ray temp dir is named relative to this process's cwd
    # import the benchmark as the perfbench package, never its modules as
    # top-level names
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    from perfbench.host import descendants, reap, wait_children

    # Ray 2.49 can abort the process that drives it with a failed C++ CHECK
    # of its own task bookkeeping (reference_count.cc:
    # submitted_task_ref_count > 0; task_manager.cc: "Tried to complete task
    # that was not pending"), a race outside raywin seen only on
    # events_backfill.  Each attempt therefore runs in a spawned child.  A
    # child that dies with Ray's CHECK-failure banner in its standard error
    # is run again, and each such attempt counts as one attempted and failed
    # operation of the result; any other death, or an exception raised by
    # the run, ends it.
    _set_child_subreaper()
    ctx = multiprocessing.get_context("spawn")
    err_path = os.path.join(ROOT, ".perfbench_work", "attempt.stderr")
    os.makedirs(os.path.dirname(err_path), exist_ok=True)
    start = time.monotonic()
    aborted = 0
    while True:
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_attempt, args=(args, send, err_path))
        child.start()
        send.close()
        try:
            kind, payload = recv.recv()
        except EOFError:
            kind, payload = "died", None
        child.join()
        reap(descendants(os.getpid()), f"/proc/{child.pid}/cwd/.perfbench_work/ray")
        wait_children()
        with open(err_path, errors="replace") as f:
            err = f.read()
        sys.stderr.write(err)
        if kind == "result":
            result = payload
            break
        if kind == "error":
            print(payload, file=sys.stderr)
            return 1
        ray_check = RAY_CHECK_BANNER in err and "Check failed" in err
        if (not ray_check or aborted >= MAX_RETRIES
                or time.monotonic() - start > RETRY_BEFORE_S):
            print(f"run died (exit code {child.exitcode}) and was not retried", file=sys.stderr)
            return 1
        aborted += 1
        shutil.rmtree(os.path.join(ROOT, ".perfbench_work", "ray"), ignore_errors=True)
    result["attempted"] += aborted
    result["failed"] += aborted
    print(f"aborted_attempts = {aborted} count")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
