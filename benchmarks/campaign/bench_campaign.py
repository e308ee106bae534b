"""Campaign benchmark: cold campaign runs, host time end to end and per layer.

Each run drives the program exactly as ``repro campaign <ids> --scale
<preset> --jobs 1`` does -- ``CampaignRunner(store=ArtifactStore(<fresh
dir>), scale=<preset>, jobs=1, granularity="experiment")`` -- in a fresh
``python`` subprocess, so every run starts cold as a user's campaign
does.  Every experiment result is checked against the committed
``digests.json``; a task that raised or whose digest differs is a failed
operation.  Load model: closed loop, one client (a serial campaign in one
worker process); the parent only waits.

Usage (from the repository root)::

    # the full suite: every workload interleaved for --reps rounds, the
    # last round also running each workload once traced; prints every
    # metric, writes DIR/results.json and DIR/trace-<workload>.json,
    # exits non-zero if any operation failed
    python benchmarks/campaign/bench_campaign.py [--reps 10] [--out DIR]

    # one workload for a fixed time; the last stdout line is one JSON
    # object with the end-to-end (--trace 0) or per-layer (--trace 1)
    # metrics declared in BENCHMARK.json
    python benchmarks/campaign/bench_campaign.py --workload characterize \\
        --seed 1 --seconds 30 --trace 0

    # compare two suite results, one verdict per (workload, metric)
    python benchmarks/campaign/bench_campaign.py compare BASE NEW

    # rewrite digests.json from the current code
    python benchmarks/campaign/bench_campaign.py --write-digests

The program draws no randomness of its own from outside: every draw is
content-keyed by configuration, serial, row and purpose.  ``--seed`` only
orders the experiments of a workload within the campaign; results, and so
the digests, do not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = HERE / "digests.json"
#: run scratch (artifact stores, result files) and default output dir
WORK_DIR = HERE / ".work"


@dataclass(frozen=True)
class Workload:
    scale: str
    ids: tuple[str, ...]


#: together the four run all 24 registered experiments once; README.md
#: gives the reason for each choice of experiments and scale
WORKLOADS: dict[str, Workload] = {
    "characterize": Workload("default", (
        "table1", "table2", "fig04", "fig05", "fig06", "fig07", "fig08",
        "fig09", "fig10", "fig11", "fig13", "fig14", "fig15", "fig16",
        "fig17", "fig18", "fig19", "fig21", "fig22", "fig23",
    )),
    "gauntlet": Workload("smoke", ("attack_surface",)),
    "prac_memsys": Workload("default", ("fig25",)),
    "pud_integrity": Workload("default", ("fig24", "pud_reliability")),
}

#: setup-only spawns per timed run, on top of each measured campaign's own
SETUP_PROBES = 3
#: a timed run must end within this many seconds, children included
RUN_LIMIT_S = 170.0
#: per-child limit in the full suite
SUITE_CHILD_LIMIT_S = 900.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing)."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def result_digest(result_dict: dict) -> str:
    """sha256 of an ``ExperimentResult.to_dict()`` in canonical JSON."""
    blob = json.dumps(result_dict, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def ordered_ids(ids: Sequence[str], seed: int) -> list[str]:
    """The workload's experiments in the order ``seed`` picks."""
    return random.Random(seed).sample(list(ids), len(ids))


def rotate(items: Sequence, start: int) -> list:
    start %= len(items)
    return list(items[start:]) + list(items[:start])


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# child: one cold campaign (or, with no ids, set-up only)
# ----------------------------------------------------------------------
def child_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench_campaign.py child")
    parser.add_argument("--scale", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--ids", default="")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    from repro.campaign import ArtifactStore, CampaignRunner
    from repro.core.scale import ExperimentScale

    runner = CampaignRunner(
        store=ArtifactStore(args.store),
        scale=getattr(ExperimentScale, args.scale)(),
        jobs=1,
        granularity="experiment",
    )
    out: dict = {"ready": time.monotonic()}
    ids = [i for i in args.ids.split(",") if i]
    if ids:
        tracer = None
        if args.trace_out:
            from layer_trace import Tracer
            from repro.obs import Obs

            tracer = Tracer(Obs())
            tracer.install()
        started = time.perf_counter()
        summary = runner.run(ids)
        out["wall_s"] = time.perf_counter() - started
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        out["ids"] = ids
        out["digests"] = {
            experiment_id: result_digest(result.to_dict())
            for experiment_id, result in summary.results.items()
        }
        out["failures"] = dict(summary.failures)
        if tracer is not None:
            tracer.uninstall()
            from layer_trace import layer_metrics

            out["layers"] = layer_metrics(tracer.spans, tracer.obs, tracer.acts)
            tracer.write(Path(args.trace_out))
    Path(args.result).write_text(json.dumps(out))
    return 0


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(tmp)  # keep anything the program writes in the checkout
    return env


def spawn(
    ids: Sequence[str], scale: str, timeout: float,
    trace_out: Optional[Path] = None,
) -> dict:
    """Run one cold child; ``setup_s`` is spawn-to-ready host time."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp_name:
        tmp = Path(tmp_name)
        result_path = tmp / "result.json"
        command = [
            sys.executable, str(HERE / "bench_campaign.py"), "child",
            "--scale", scale, "--store", str(tmp / "store"),
            "--result", str(result_path), "--ids", ",".join(ids),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=_child_env(tmp),
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"campaign child {','.join(ids) or '(setup)'} ran past "
                f"{timeout:.0f}s"
            ) from None
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(
                f"campaign child exited {proc.returncode}:\n"
                f"{proc.stderr[-3000:]}"
            )
        out = json.loads(result_path.read_text())
    out["setup_s"] = out.pop("ready") - spawned
    return out


# ----------------------------------------------------------------------
# parent: records and metrics
# ----------------------------------------------------------------------
@dataclass
class WorkloadRecord:
    """Every sample one workload produced in one benchmark run."""

    setup_s: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    peak_rss_mb: list = field(default_factory=list)
    traced_wall_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: experiment id -> digest of the first run that produced it
    digests: dict = field(default_factory=dict)

    def add(self, rep: dict, expected: Optional[dict]) -> None:
        """Fold in one child's output; ``expected`` None skips the
        digest check (only while writing digests)."""
        self.setup_s.append(rep["setup_s"])
        if "ids" not in rep:
            return
        traced = "layers" in rep
        if traced:
            self.traced_wall_s.append(rep["wall_s"])
            self.layers.append(rep["layers"])
        else:
            self.wall_s.append(rep["wall_s"])
            self.peak_rss_mb.append(rep["peak_rss_mb"])
        for experiment_id in rep["ids"]:
            self.attempted += 1
            digest = rep["digests"].get(experiment_id)
            if experiment_id in rep["failures"]:
                self.failures.append(
                    f"{experiment_id}: raised {rep['failures'][experiment_id]}"
                )
            elif expected is not None and digest != expected.get(experiment_id):
                self.failures.append(
                    f"{experiment_id}: digest {digest} != committed "
                    f"{expected.get(experiment_id)}"
                )
            elif self.digests.setdefault(experiment_id, digest) != digest:
                self.failures.append(
                    f"{experiment_id}: digest changed between runs"
                )

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(self.wall_s),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(self.peak_rss_mb),
        }

    def per_layer(self) -> dict[str, float]:
        names = sorted({name for layers in self.layers for name in layers})
        out = {
            name: statistics.median(layers.get(name, 0.0) for layers in self.layers)
            for name in names
        }
        if self.traced_wall_s and self.wall_s:
            out["trace.overhead_frac"] = (
                statistics.median(self.traced_wall_s)
                / statistics.median(self.wall_s) - 1.0
            )
        return out


def declared(computed: dict[str, float], metrics: list[dict]) -> dict:
    """The BENCHMARK.json metrics, in its order; a layer that did not run
    in this workload reads 0."""
    names = {m["name"] for m in metrics}
    extra = sorted(set(computed) - names)
    if extra:
        print(f"warning: undeclared metrics dropped: {', '.join(extra)}",
              file=sys.stderr)
    return {
        m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
        for m in metrics
    }


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


# ----------------------------------------------------------------------
# timed run of one workload (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def run_timed(name: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()

    def timeout() -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - started))

    spec = load_spec()
    workload = WORKLOADS[name]
    expected = load_digests().get(name, {})
    ids = ordered_ids(workload.ids, seed)
    record = WorkloadRecord()
    for _ in range(SETUP_PROBES):
        record.add(spawn((), workload.scale, timeout()), expected)
    measuring = time.monotonic()
    rounds = 0
    while True:
        trace_outs = [None]
        if trace:
            trace_outs.append(WORK_DIR / f"trace-{name}.json")
        for trace_out in trace_outs:
            rep = spawn(ids, workload.scale, timeout(), trace_out)
            record.add(rep, expected)
            kind = "untraced" if trace_out is None else "traced"
            print(f"{name} {kind} wall_s {rep['wall_s']:.4f} "
                  f"setup_s {rep['setup_s']:.4f}", file=sys.stderr)
        rounds += 1
        elapsed = time.monotonic() - measuring
        # stop at the round boundary nearest to --seconds: a run then
        # measures about --seconds whatever one round takes (two
        # prac_memsys campaigns in 30 s rather than one)
        if elapsed + elapsed / rounds / 2 > seconds:
            break
    for failure in record.failures:
        print(f"FAILED {name} {failure}", file=sys.stderr)
    if trace:
        metrics = declared(record.per_layer(), spec["per_layer"])
    else:
        metrics = declared(record.end_to_end(), spec["end_to_end"])
    print(json.dumps({
        "correct": not record.failures,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": metrics,
    }))
    # the result line carries any failure; the run itself completed
    return 0


# ----------------------------------------------------------------------
# the full suite
# ----------------------------------------------------------------------
def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


def _summary(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{_fmt(median)} [{_fmt(q1)}, {_fmt(q3)}] n={len(values)}"


def print_report(records: dict[str, WorkloadRecord], spec: dict) -> None:
    names = list(records)
    width = max(len(n) for n in names) + 2
    print("end-to-end (host time; median [q1, q3] n):")
    for metric in spec["end_to_end"]:
        key = metric["name"]
        print(f"  {key} ({metric['unit']}, bound {metric['bound']:.0%})")
        for name in names:
            print(f"    {name:<{width}}{_summary(getattr(records[name], key))}")
    print("  failed_frac (ratio)")
    for name in names:
        record = records[name]
        print(f"    {name:<{width}}{record.failed_frac:.4g} "
              f"({len(record.failures)}/{record.attempted})")
    print("per-layer (traced round):")
    layers = {name: records[name].per_layer() for name in names}
    label_width = max(len(m["name"]) + len(m["unit"]) for m in spec["per_layer"]) + 4
    print(" " * (label_width + 2) + "".join(f"{n:>15}" for n in names))
    for metric in spec["per_layer"]:
        label = f"{metric['name']} ({metric['unit']})"
        cells = "".join(
            f"{_fmt(layers[n].get(metric['name'], 0.0)):>15}" for n in names
        )
        print(f"  {label:<{label_width}}{cells}")


def run_suite(reps: int, out: Path, seed: int, write_digests: bool) -> int:
    spec = load_spec()
    expected = None if write_digests else load_digests()
    names = list(WORKLOADS)
    records = {name: WorkloadRecord() for name in names}
    out.mkdir(parents=True, exist_ok=True)

    def one(name: str, traced: bool) -> None:
        workload = WORKLOADS[name]
        if not traced:
            for _ in range(SETUP_PROBES):
                records[name].add(
                    spawn((), workload.scale, SUITE_CHILD_LIMIT_S), None
                )
        trace_out = out / f"trace-{name}.json" if traced else None
        rep = spawn(ordered_ids(workload.ids, seed), workload.scale,
                    SUITE_CHILD_LIMIT_S, trace_out)
        records[name].add(rep, None if expected is None else expected.get(name, {}))
        kind = "traced" if traced else "run"
        print(f"{kind:>6} {name:<14} {rep['wall_s']:8.3f} s", file=sys.stderr)

    for round_index in range(reps):
        for name in rotate(names, round_index):
            one(name, traced=False)
            # the traced run follows an untraced one of the same workload,
            # so host drift moves trace.overhead_frac as little as it can
            if round_index == reps - 1 and not write_digests:
                one(name, traced=True)
    if write_digests:
        failures = [f for r in records.values() for f in r.failures]
        if failures:
            raise BenchError("results differ between runs: " + "; ".join(failures))
        DIGESTS_PATH.write_text(json.dumps(
            {name: dict(sorted(records[name].digests.items())) for name in names},
            indent=1,
        ) + "\n")
        print(f"wrote {DIGESTS_PATH}")
        return 0

    print_report(records, spec)
    payload = {
        "machine": machine(),
        "reps": reps,
        "seed": seed,
        "workloads": {
            name: {
                **asdict(record),
                "failed_frac": record.failed_frac,
                "per_layer": record.per_layer(),
            }
            for name, record in records.items()
        },
    }
    (out / "results.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"results: {out / 'results.json'}")
    failures = [
        f"{name} {failure}"
        for name, record in records.items()
        for failure in record.failures
    ]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def relative_spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: Sequence[float], new: Sequence[float], bound: float) -> str:
    """better / same / worse for a lower-is-better metric, or unresolved
    when either side's quartile spread exceeds the bound (unless every NEW
    run beats every BASE run)."""
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "better" if max(new) < min(base) else "unresolved"
    change = statistics.median(new) / statistics.median(base) - 1.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def _load_results(path: str) -> dict:
    target = Path(path)
    if target.is_dir():
        target = target / "results.json"
    return json.loads(target.read_text())


def compare(base_path: str, new_path: str) -> int:
    spec = load_spec()
    base = _load_results(base_path)["workloads"]
    new = _load_results(new_path)["workloads"]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    bad = 0
    header = (f"{'workload':<14} {'metric':<12} {'base median [q1, q3] n':<30} "
              f"{'new median [q1, q3] n':<30} {'bound':>6} {'change':>8}  verdict")
    print(header)
    for name in [n for n in base if n in new]:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            b, n = base[name][key], new[name][key]
            change = statistics.median(n) / statistics.median(b) - 1.0
            result = verdict(b, n, bound)
            bad += result in ("worse", "unresolved")
            print(f"{name:<14} {key:<12} {_summary(b):<30} {_summary(n):<30} "
                  f"{bound:>6.0%} {change:>+8.1%}  {result}")
        delta = new[name]["failed_frac"] - base[name]["failed_frac"]
        bad += delta > 0
        print(f"{name:<14} failed_frac  {base[name]['failed_frac']:.4g} -> "
              f"{new[name]['failed_frac']:.4g} ({delta:+.4g})")
        for key in counts:
            b = base[name]["per_layer"].get(key, 0)
            n = new[name]["per_layer"].get(key, 0)
            if b != n:
                bad += 1
                print(f"{name:<14} COUNT DIFFERS {key}: {_fmt(b)} -> {_fmt(n)}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["child"]:
        return child_main(argv[1:])
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench_campaign.py compare")
        parser.add_argument("base", help="results.json (or its directory)")
        parser.add_argument("new", help="results.json (or its directory)")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)

    parser = argparse.ArgumentParser(
        description="Cold-campaign benchmark (see the module docstring)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="time one workload for --seconds and print one "
                             "JSON line (default: run the full suite)")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders each workload's experiments")
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=10,
                        help="untraced rounds of the full suite (ten give "
                             "compare quartiles that mean something)")
    parser.add_argument("--out", type=Path, default=WORK_DIR,
                        help="where the full suite writes results and traces")
    parser.add_argument("--write-digests", action="store_true",
                        help="rewrite digests.json from --reps suite rounds")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    try:
        if args.workload:
            seconds = args.seconds
            if seconds is None:
                seconds = load_spec()["run_seconds"]
            return run_timed(args.workload, args.seed, seconds,
                             bool(args.trace))
        return run_suite(args.reps, args.out, args.seed, args.write_digests)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
