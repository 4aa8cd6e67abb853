"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see ``NOTES.md``):
``cold_serial``, ``cold_pool``, ``warm_replay`` and ``serve_mix``. With
``--trace 0`` the last stdout line is one JSON object with the end-to-end
metrics; with ``--trace 1`` the workload runs untraced, then again on the
same ops with every layer's entry points wrapped, and the object holds
the per-layer metrics. Either way it has the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Everything the run writes stays
under ``.perfbench/`` in the repository: the full record (with a machine
fingerprint) in ``results/``, the traced run's Chrome trace in
``traces/``; scratch stores in ``runs/`` are deleted at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, inputs, metrics, serve_mix, tracing  # noqa: E402

WORKLOADS = ("cold_serial", "cold_pool", "warm_replay", "serve_mix")
COLD_SCALE = 2000
WARM_SCALE = 500
#: A child still running after this long is killed and the run fails.
CHILD_TIMEOUT_SECONDS = 170


@dataclass(frozen=True)
class Sizes:
    """How much each workload does; the self-test shrinks these."""

    strata: int = 4           #: cold subsets: one benchmark per stratum and suite
    batch_size: int = 4       #: pairs per cold_pool batch (2 per worker)
    figures: Tuple[int, ...] = ()  #: warm_replay figures (empty: all 13)
    setups: int = 9           #: set-ups timed per cold run (median reported)
    serve_setups: int = 5     #: server starts timed per serve_mix run
    min_ops: int = 20         #: ops a time-boxed run completes at least
    checks: int = 3           #: pairs re-simulated by the output checks
    warm_max_ops: int = 1000  #: replays a warm run may do at most


FULL = Sizes()
TINY = Sizes(strata=1, figures=(9,), setups=2, serve_setups=1, min_ops=2, checks=1)


class BenchError(RuntimeError):
    """A child process or the server misbehaved."""


class Run:
    """One invocation: its arguments, scratch directory and child processes."""

    def __init__(self, args: argparse.Namespace, sizes: Sizes) -> None:
        self.args = args
        self.sizes = sizes
        self.dir = ROOT / ".perfbench" / "runs" / (
            f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        self.env = dict(os.environ)
        self.env.pop("REPRO_TRACE", None)
        self.env["REPRO_CACHE_DIR"] = str(self.dir / "cache")
        self._count = 0

    def fresh(self, name: str) -> str:
        """A new, not yet existing path under the scratch directory."""
        self._count += 1
        return str(self.dir / f"{name}-{self._count}")

    def child(self, spec: Dict) -> Tuple[float, Dict]:
        """Run a ``perfbench.child``; returns (spawn-to-READY seconds, result)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        spec_path, result_path = self.fresh("spec"), self.fresh("result")
        Path(spec_path).write_text(json.dumps(spec), encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", spec_path, result_path],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_SECONDS, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "READY" or code != 0:
            raise BenchError(f"{spec['kind']} child exited with {code}")
        return ready, json.loads(Path(result_path).read_text(encoding="utf-8"))


def figure_matrix() -> List[inputs.Pair]:
    """The campaign's (benchmark, scheme name) pairs, in figure order."""
    from repro.common.config import scheme_name
    from repro.experiments import figures
    from repro.experiments.campaign import ALL_FIGURES

    return [(b, scheme_name(s)) for b, s in figures.required_runs(ALL_FIGURES)]


def _setup_s(setups: List[float], calibrator: calibrate.Calibrator) -> float:
    """Median set-up time, normalized by reference samples taken between set-ups."""
    return statistics.median(setups) / calibrator.factor()


def _outcome(phases: List[Dict]) -> Dict:
    attempted = sum(phase.get("attempted", len(phase["latencies"])) for phase in phases)
    failures = [line for phase in phases for line in phase["failures"].values()]
    return {"attempted": attempted, "failed": len(failures), "failures": failures}


def _completed(phase: Dict) -> int:
    return len(phase["latencies"]) - len(phase["failures"])


def _layers(untraced: Dict, traced: Dict, extra: Dict) -> Dict:
    summary = traced["trace"]
    entries = metrics.merge_entries(summary["entries"], summary.get("registry", {}))
    return metrics.per_layer(
        entries, summary["layer_self"], summary["timeline_s"],
        traced["normalized_wall"] - untraced["normalized_wall"], extra,
    )


def cold(run: Run, pool: bool) -> Dict:
    args, sizes = run.args, run.sizes
    pairs = inputs.cold_pairs(args.seed, figure_matrix(), sizes.strata)
    batches = inputs.batched(pairs, sizes.batch_size if pool else 1)
    spec = {
        "kind": "cold_pool" if pool else "cold_serial", "scale": COLD_SCALE,
        "batches": batches, "check_order": inputs.check_order(args.seed, len(pairs)),
        "checks": sizes.checks, "plant": args.plant_mismatch,
        "seconds": args.seconds, "min_ops": sizes.min_ops, "trace": False,
    }
    # The parent samples the reference loop before each set-up it times.
    calibrator = calibrate.Calibrator()
    setups = []
    if not args.trace:
        for __ in range(sizes.setups - 1):
            calibrator.sample()
            setups.append(run.child({**spec, "setup_only": True,
                                     "store": run.fresh("store")})[0])
    calibrator.sample()
    ready, result = run.child({**spec, "store": run.fresh("store")})
    setups.append(ready)
    record = {"ops": len(result["latencies"]), "pairs": len(pairs),
              "pairs_run": result["pairs_run"],
              "subset": sorted({b for b, __ in pairs}), "setups": setups,
              "setup_calibration": calibrator.samples,
              "slowdown": result["slowdown"]}
    if not args.trace:
        record["metrics"] = metrics.end_to_end(
            _setup_s(setups, calibrator),
            result["normalized_latencies"], _completed(result),
            result["normalized_wall"], result["instructions"], result["peak_rss_kb"],
        )
        return {**record, **_outcome([result])}
    __, traced = run.child({**spec, "trace": True, "ops": len(result["latencies"]),
                            "store": run.fresh("store")})
    record["traced_pairs_run"] = traced["pairs_run"]
    record["metrics"] = _layers(
        result, traced, {"workloads.spill_bytes": traced["spill_bytes"]}
    )
    record["chrome_events"] = traced["chrome_events"]
    return {**record, **_outcome([result, traced])}


def warm(run: Run) -> Dict:
    from repro.experiments.campaign import ALL_FIGURES

    args, sizes = run.args, run.sizes
    numbers = list(sizes.figures) or list(ALL_FIGURES)
    store = run.fresh("store")
    fill_s, fill = run.child({"kind": "warm_fill", "scale": WARM_SCALE,
                              "figures": numbers, "store": store})
    spec = {
        "kind": "warm_replay", "scale": WARM_SCALE, "figures": numbers,
        "store": store, "plant": args.plant_mismatch, "seconds": args.seconds,
        "min_ops": sizes.min_ops, "max_ops": sizes.warm_max_ops, "trace": False,
    }
    ready, result = run.child({**spec, "export_dir": run.fresh("exports")})
    setup = fill_s + ready
    record = {"ops": len(result["latencies"]), "figures": numbers,
              "filled": fill["simulations"], "setups": [setup],
              "slowdown": result["slowdown"]}
    if not args.trace:
        # One ~15 s set-up: the replay phase's many reference samples,
        # taken right after it, track its speed better than a few samples
        # around it, which the fill child's exit disturbs.
        record["metrics"] = metrics.end_to_end(
            setup / result["slowdown"], result["normalized_latencies"],
            _completed(result), result["normalized_wall"], result["instructions"],
            result["peak_rss_kb"],
        )
        return {**record, **_outcome([result])}
    __, traced = run.child({**spec, "trace": True, "ops": len(result["latencies"]),
                            "export_dir": run.fresh("exports")})
    record["metrics"] = _layers(result, traced, {})
    record["chrome_events"] = traced["chrome_events"]
    return {**record, **_outcome([result, traced])}


def _local_check(seed: int, count: int):
    """Re-simulate a seeded handful of served keys in this process."""
    def check(served: Dict[inputs.Pair, Dict]) -> List[inputs.Pair]:
        from repro.common.config import scheme_name
        from repro.experiments import figures
        from repro.experiments.campaign import ALL_FIGURES
        from repro.experiments.runner import RunScale, simulate_pair

        schemes = {scheme_name(s): s for __, s in figures.required_runs(ALL_FIGURES)}
        scale = RunScale(serve_mix.SCALE, serve_mix.SCALE // 2)
        chosen = random.Random(f"local-{seed}").sample(
            sorted(served), min(count, len(served))
        )
        wrong = []
        for benchmark, scheme in chosen:
            stats = simulate_pair(benchmark, schemes[scheme], scale)[0]
            if json.loads(json.dumps(stats.to_dict())) != served[(benchmark, scheme)]["stats"]:
                wrong.append((benchmark, scheme))
        return wrong

    return check


def _serve_phase(run: Run, events, limit=None, tracer=None, totals=None) -> Dict:
    """One server, one client phase, the checks; the server is always stopped."""
    server = serve_mix.Server(Path(run.fresh("store")), run.env, totals)
    client = serve_mix.Client(server.port, events, tracer)
    calibrator = calibrate.Calibrator()
    try:
        calibrator.sample()
        client.run(run.args.seconds, limit, calibrator)
        calibrator.sample()
        status, data = serve_mix.request(server.port, "GET", "/v1/stats")
        stats = json.loads(data) if status == 200 else {"scheduler": {"simulated": -1}}
        peak_rss_kb = server.peak_rss_kb()
    finally:
        code = server.stop()
    jobs = client.jobs
    failures = serve_mix.check_jobs(
        jobs, stats, run.args.plant_mismatch,
        _local_check(run.args.seed, run.sizes.checks),
    )
    if code != 0:
        failures.append(f"server exited with status {code} after SIGINT")
    return {
        "setup_s": server.setup_s, "busy": client.busy, "stats": stats,
        "calibration": calibrator.samples, "slowdown": calibrator.factor(),
        "normalized_busy": client.busy / calibrator.factor(),
        "peak_rss_kb": peak_rss_kb, "jobs": jobs, "attempted": len(jobs),
        "events": client.events_done,
        "latencies": [job.latency for job in jobs if job.error is None],
        "failures": dict(enumerate(failures)),
    }


def serve(run: Run) -> Dict:
    args, sizes = run.args, run.sizes
    events = inputs.serve_stream(args.seed, figure_matrix())
    # Client and server (which inherits this) share one CPU: the closed
    # loop keeps them from running at once, and the reference loop the
    # client samples then runs on the CPU the server ran on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned
    calibrator = calibrate.Calibrator()
    setups = []
    if not args.trace:
        for __ in range(sizes.serve_setups - 1):
            calibrator.sample()
            server = serve_mix.Server(Path(run.fresh("store")), run.env)
            setups.append(server.setup_s)
            if server.stop() != 0:
                raise BenchError("server did not exit cleanly after SIGINT")
    calibrator.sample()
    phase = _serve_phase(run, events)
    setups.append(phase["setup_s"])
    completed = len(phase["latencies"])
    record = {"ops": len(phase["jobs"]), "setups": setups,
              "setup_calibration": calibrator.samples,
              "cold_jobs": sum(job.kind != "repeat" for job in phase["jobs"]),
              "scheduler": phase["stats"].get("scheduler", {}),
              "busy": phase["busy"], "slowdown": phase["slowdown"]}
    if not args.trace:
        slowdown = phase["slowdown"]
        # Throughput over busy time: the client's sleeps between polls are
        # neither program time nor scaled by the machine-speed factor.
        record["metrics"] = metrics.end_to_end(
            _setup_s(setups, calibrator),
            [latency / slowdown for latency in phase["latencies"]], completed,
            phase["normalized_busy"], completed * serve_mix.SCALE, phase["peak_rss_kb"],
        )
        return {**record, **_outcome([phase])}
    tracer = tracing.Tracer()
    totals = Path(run.fresh("server-totals"))
    traced = _serve_phase(run, events, phase["events"], tracer, totals)
    server = json.loads(totals.read_text(encoding="utf-8"))
    summary = tracer.summary()
    entries = metrics.merge_entries(summary["entries"], server["trace"]["entries"])
    scheduler = traced["stats"]["scheduler"]
    waiters = scheduler["misses"] + scheduler["coalesced"]
    extra = {
        "serve.polls_per_job": (
            entries.get("serve.status", [0])[0] / max(1, len(traced["jobs"]))
        ),
        "serve.units": scheduler["units"], "serve.hits": scheduler["hits"],
        "serve.coalesced": scheduler["coalesced"],
        "serve.simulated": scheduler["simulated"], "serve.batches": scheduler["batches"],
        "serve.coalesce_ratio": scheduler["coalesced"] / waiters if waiters else 0.0,
    }
    record["metrics"] = metrics.per_layer(
        entries, summary["layer_self"], summary["timeline_s"],
        traced["normalized_busy"] - phase["normalized_busy"], extra,
    )
    record["chrome_events"] = tracer.chrome_events() + server["chrome_events"]
    return {**record, **_outcome([phase, traced])}


def fingerprint(seed: int, load: Tuple[float, float, float]) -> Dict:
    """The machine and build a result was measured on."""
    from repro.experiments.store import SIMULATOR_VERSION_TAG

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "loadavg_start": list(load),
        "simulator_version_tag": SIMULATOR_VERSION_TAG, "seed": seed,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few ops of each kind")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="self-test: corrupt one output before it is checked")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    load = os.getloadavg()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args, TINY if args.tiny else FULL)
    try:
        if args.workload == "serve_mix":
            record = serve(run)
        elif args.workload == "warm_replay":
            record = warm(run)
        else:
            record = cold(run, pool=args.workload == "cold_pool")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    record["fingerprint"] = fingerprint(args.seed, load)
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = record["metrics"]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": table[name][0]}
                    for name in table},
    }
    out = ROOT / ".perfbench"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    events = record.pop("chrome_events", None)
    if events is not None:
        trace_path = out / "traces" / f"{stem}.json"
        tracing.write_chrome_trace(str(trace_path), events, record["fingerprint"])
        print(f"perfbench: Chrome trace in {trace_path.relative_to(ROOT)}")
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "results" / f"{stem}.json").write_text(
        json.dumps({**record, "result": result}, indent=1, default=str),
        encoding="utf-8",
    )
    print(f"perfbench: fingerprint {json.dumps(record['fingerprint'])}")
    print(f"perfbench: {args.workload} seed {args.seed}: {record['ops']} ops, "
          f"{record['failed']} failed of {record['attempted']} attempted")
    for line in record["failures"][:5]:
        print(f"perfbench: failure: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
