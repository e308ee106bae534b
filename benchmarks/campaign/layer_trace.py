"""Outside-in layer tracing for the campaign benchmark.

The program is measured as it ships: nothing under ``src/`` records
spans.  Instead :class:`Tracer` installs timing wrappers *by identity*:
for each :data:`TARGETS` entry it finds the function object, then
replaces every binding of that object in every loaded ``repro.*`` module
and class.  That also catches names imported with ``from x import y``
(``run_batched_searches`` is called through ``repro.core.session``'s
namespace, ``build_plan`` through ``repro.bender.host``'s).

A target that resolves to no function, or to a function with no binding
left to replace, aborts the install and names the target: a rename in
``src/`` must fail the traced round loudly, never report a layer as 0.

Where a layer exposes a public ``obs=`` parameter (the batched probe
engine, the DRAM Bender host, the memory system) and its caller passed
none, the wrapper hands in the tracer's :class:`repro.obs.Obs`, so the
layer's own counters (probe paths, loop paths, memsys requests) land in
the same record as the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional, Sequence


class TraceTargetError(RuntimeError):
    """A trace target matched no function, or a function with no binding."""


def _arg(position: int, name: str) -> Callable:
    def get(fn, args, kwargs):
        return kwargs[name] if name in kwargs else args[position]
    return get


def _fn_name(fn, args, kwargs) -> str:
    return fn.__name__


def _n_setups(fn, args, kwargs) -> int:
    return len(kwargs["setups"] if "setups" in kwargs else args[0])


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    ``qualname`` is ``func`` or ``Class.attr`` inside ``module``; a trailing
    ``*`` matches every function attribute with that prefix.  ``span`` is
    the span name (None: no span, only ``obs`` injection); ``detail``
    computes a per-call label from ``(fn, args, kwargs)``.
    """

    span: Optional[str]
    module: str
    qualname: str
    detail: Optional[Callable] = None
    inject_obs: bool = False
    count_acts: bool = False

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"


TARGETS: tuple[Target, ...] = (
    Target("campaign.run", "repro.campaign.runner", "CampaignRunner.run"),
    Target("store.put", "repro.campaign.store", "ArtifactStore.put"),
    Target("experiment", "repro.experiments", "run_experiment",
           detail=_arg(0, "experiment_id")),
    Target("session", "repro.core.session",
           "CharacterizationSession.measure_*", detail=_fn_name),
    Target("session", "repro.core.session",
           "CharacterizationSession.prefetch_wcdp", detail=_fn_name),
    Target("session", "repro.core.session",
           "CharacterizationSession.rank_victims", detail=_fn_name),
    Target("probe_batch", "repro.core.probe_batch", "run_batched_searches",
           detail=_n_setups, inject_obs=True),
    Target("hcfirst", "repro.core.hcfirst", "find_hc_first_repeated"),
    Target(None, "repro.bender.host", "DramBenderHost.__init__",
           inject_obs=True),
    Target("host.run", "repro.bender.host", "DramBenderHost.run",
           count_acts=True),
    Target("host.write_rows", "repro.bender.host", "DramBenderHost.write_rows"),
    Target("host.read_rows", "repro.bender.host", "DramBenderHost.read_rows"),
    Target("compiler.build_plan", "repro.bender.compiler", "build_plan"),
    Target("compiler.compile_stream", "repro.bender.compiler",
           "compile_stream"),
    Target("disturbance.population", "repro.disturbance.model",
           "DisturbanceModel.population"),
    Target("disturbance.oracle", "repro.disturbance.model",
           "DisturbanceModel.reference_hcfirst_array"),
    Target("disturbance.oracle", "repro.disturbance.model",
           "DisturbanceModel.worst_case_patterns"),
    Target("dram.module_init", "repro.dram.module", "DramModule.__init__"),
    Target("attack.synthesize", "repro.attack.synthesis", "synthesize_attacks"),
    Target("attack.cell", "repro.attack.gauntlet", "run_cell",
           detail=_arg(2, "mitigation")),
    Target(None, "repro.memsys.system", "MemorySystem.__init__",
           inject_obs=True),
    Target("memsys.run", "repro.memsys.system", "MemorySystem.run"),
    Target("memsys.alone_ipc", "repro.memsys.system", "alone_ipc"),
    Target("reliability.execute", "repro.reliability.executor",
           "execute_workload"),
    Target("reliability.build", "repro.reliability.workloads",
           "build_workloads"),
)


def resolve(target: Target) -> list:
    """The function objects ``target`` names (raises if there are none)."""
    module = importlib.import_module(target.module)
    owner_name, _, attr = target.qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    namespace = vars(owner) if owner is not None else {}
    if attr.endswith("*"):
        names = sorted(n for n in namespace if n.startswith(attr[:-1]))
    else:
        names = [attr]
    functions = [
        namespace[n] for n in names
        if inspect.isfunction(namespace.get(n))
    ]
    if not functions:
        raise TraceTargetError(
            f"trace target {target.label} matches no function"
        )
    return functions


def _namespaces() -> list:
    """Every loaded ``repro.*`` module plus the classes defined in them."""
    out, seen = [], set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        out.append(module)
        for value in list(vars(module).values()):
            if (isinstance(value, type)
                    and value.__module__.startswith("repro")
                    and id(value) not in seen):
                seen.add(id(value))
                out.append(value)
    return out


def bindings(fn, namespaces: Sequence) -> list[tuple[object, str]]:
    """Every ``(namespace, attribute)`` whose value is ``fn`` itself."""
    return [
        (namespace, attr)
        for namespace in namespaces
        for attr, value in list(vars(namespace).items())
        if value is fn
    ]


def _obs_injector(fn, obs) -> Callable:
    """Put ``obs`` into ``fn``'s ``obs`` argument when the caller left it
    unset or passed a disabled registry."""
    position = list(inspect.signature(fn).parameters).index("obs")

    def inject(args, kwargs):
        if len(args) > position:
            if not getattr(args[position], "enabled", False):
                args = args[:position] + (obs,) + args[position + 1:]
        elif not getattr(kwargs.get("obs"), "enabled", False):
            kwargs["obs"] = obs
        return args, kwargs

    return inject


def _bank_acts(host) -> int:
    return sum(bank.stats["acts"] for bank in host.module.banks)


class Tracer:
    """Spans and counters of one traced campaign run.

    ``spans`` holds ``(name, detail, start, end, parent)`` tuples in call
    order; ``parent`` is the index of the enclosing span, or -1.
    """

    def __init__(self, obs) -> None:
        self.obs = obs
        self.spans: list = []
        self.acts = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target; all or nothing."""
        for target in targets:
            importlib.import_module(target.module)
        namespaces = _namespaces()
        plan = []
        for target in targets:
            for fn in resolve(target):
                found = bindings(fn, namespaces)
                if not found:
                    raise TraceTargetError(
                        f"trace target {target.label} ({fn.__qualname__}) "
                        "has no binding in any loaded repro module or class"
                    )
                plan.append((target, fn, found))
        for target, fn, found in plan:
            wrapper = self._wrap(target, fn)
            for namespace, attr in found:
                self._patched.append((namespace, attr, fn))
                setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._patched):
            setattr(namespace, attr, fn)
        self._patched.clear()

    def _wrap(self, target: Target, fn) -> Callable:
        inject = _obs_injector(fn, self.obs) if target.inject_obs else None
        if target.span is None:
            @functools.wraps(fn)
            def hook(*args, **kwargs):
                args, kwargs = inject(args, kwargs)
                return fn(*args, **kwargs)
            return hook

        name, detail, count_acts = target.span, target.detail, target.count_acts
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if inject is not None:
                args, kwargs = inject(args, kwargs)
            label = detail(fn, args, kwargs) if detail is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            acts = _bank_acts(args[0]) if count_acts else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, label, start, end, parent)
                if count_acts:
                    tracer.acts += _bank_acts(args[0]) - acts
        return timed

    def write(self, path: Path) -> None:
        """Dump the spans as JSON, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [name, detail, start - origin, end - origin, parent]
            for name, detail, start, end, parent in self.spans
        ]
        Path(path).write_text(json.dumps({
            "fields": ["name", "detail", "start_s", "end_s", "parent"],
            "spans": rows,
        }))


@dataclass
class SpanStats:
    calls: int = 0
    #: summed duration of the outermost spans of this name (a span nested
    #: inside another of the same name is already counted by its ancestor)
    total_s: float = 0.0
    #: summed duration minus the time covered by child spans
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def aggregate(spans: Sequence[tuple]) -> dict[str, SpanStats]:
    """Per-name call count, inclusive time and self time."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for index, (name, _, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, SpanStats())
        duration = end - start
        entry.calls += 1
        entry.self_s += duration - covered[index]
        entry.durations.append(duration)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            entry.total_s += duration
    return stats


#: candidate tail percentiles in per mille (integers keep the rule exact),
#: highest first
PER_MILLE = (999, 990, 950, 900, 800, 500)


def tail_percentile(n: int) -> Optional[float]:
    """The highest of :data:`PER_MILLE` with at least ten of ``n`` samples
    above it, as a percentile (None when even the median has fewer)."""
    for pm in PER_MILLE:
        if n * (1000 - pm) >= 10 * 1000:
            return pm / 10
    return None


#: samples each timing distribution has on the workload it is aimed at
#: (gauntlet's attack cells, prac_memsys's memsys runs).  The declared
#: tail follows from these once, so a metric's name never depends on how
#: many samples one run happened to have.
TAIL_SAMPLES = {"attack.cell_s": 52, "memsys.run_s": 135}
TAILS = {prefix: tail_percentile(n) for prefix, n in TAIL_SAMPLES.items()}


def percentile(values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def _percentiles(out: dict, prefix: str, durations: list) -> None:
    """``<prefix>.p50`` and the declared tail ``<prefix>.p<TAILS[prefix]>``
    (absent, so 0, only where the layer never ran)."""
    if not durations:
        return
    out[f"{prefix}.p50"] = percentile(durations, 50.0)
    out[f"{prefix}.p{TAILS[prefix]:g}"] = percentile(durations, TAILS[prefix])


def layer_metrics(spans: Sequence[tuple], obs, acts: int) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced campaign run."""
    agg = aggregate(spans)
    empty = SpanStats()

    def get(name: str) -> SpanStats:
        return agg.get(name, empty)

    def by_detail(name: str) -> dict:
        sums: dict = {}
        for span_name, detail, start, end, _ in spans:
            if span_name == name:
                sums[detail] = sums.get(detail, 0.0) + (end - start)
        return sums

    timers = obs.snapshot()["timers"]
    out: dict[str, float] = {
        "campaign.self_s": get("campaign.run").self_s,
        "store.put_s": get("store.put").total_s,
        "session.calls": get("session").calls,
        "session.self_s": get("session").self_s,
    }
    for experiment_id, seconds in by_detail("experiment").items():
        out[f"experiment.{experiment_id}.s"] = seconds

    probes = obs.total("probe.probes")
    paths = obs.by_label("probe.probes", "path")
    out.update({
        "probe_batch.calls": get("probe_batch").calls,
        "probe_batch.searches": sum(
            detail for name, detail, *_ in spans if name == "probe_batch"
        ),
        "probe_batch.s": get("probe_batch").total_s,
        "probe_batch.self_s": get("probe_batch").self_s,
        "probe_batch.probes": probes,
        "probe_batch.flat_share": paths.get("flat", 0) / probes if probes else 0.0,
        "probe_batch.probes.interp": paths.get("interp", 0),
        "probe_batch.probes.slow": paths.get("slow", 0),
        "probe_batch.probes.capture": paths.get("capture", 0),
        "probe_batch.scalar_fallbacks": obs.total("probe.scalar_searches"),
    })
    for stage in ("capture", "translate", "replay_snapshot", "replay_kernel"):
        timer = timers.get(f"probe.stage.{stage}")
        out[f"probe_batch.stage.{stage}_s"] = timer["total_s"] if timer else 0.0

    out.update({
        "hcfirst.searches": get("hcfirst").calls,
        "hcfirst.s": get("hcfirst").total_s,
        "hcfirst.self_s": get("hcfirst").self_s,
    })

    host_run_s = get("host.run").total_s
    out.update({
        "host.runs": get("host.run").calls,
        "host.run_s": host_run_s,
        "host.self_s": sum(
            get(n).self_s for n in ("host.run", "host.write_rows", "host.read_rows")
        ),
        "host.acts": acts,
        "host.ns_per_act": host_run_s * 1e9 / acts if acts else 0.0,
        "host.write_rows_s": get("host.write_rows").total_s,
        "host.read_rows_s": get("host.read_rows").total_s,
    })
    for path in ("scaled", "stream", "unrolled"):
        out[f"host.loops.{path}"] = obs.get("host.loops", path=path)
    for path in ("stream", "unrolled"):
        out[f"host.chunks.{path}"] = obs.get("host.chunks", path=path)

    out.update({
        "compiler.build_plan_s": get("compiler.build_plan").total_s,
        "compiler.compile_stream_s": get("compiler.compile_stream").total_s,
        "disturbance.population_s": get("disturbance.population").total_s,
        "disturbance.oracle_s": get("disturbance.oracle").total_s,
        "dram.modules": get("dram.module_init").calls,
        "dram.module_init_s": get("dram.module_init").total_s,
        "attack.cells": get("attack.cell").calls,
        "attack.synthesize_s": get("attack.synthesize").total_s,
    })
    _percentiles(out, "attack.cell_s", get("attack.cell").durations)
    for mitigation, seconds in by_detail("attack.cell").items():
        out[f"attack.cell_s.{mitigation}"] = seconds

    memsys_s = get("memsys.run").total_s
    requests = obs.total("memsys.requests")
    out.update({
        "memsys.runs": get("memsys.run").calls,
        "memsys.run_s": memsys_s,
        "memsys.requests": requests,
        "memsys.us_per_request": memsys_s * 1e6 / requests if requests else 0.0,
        "memsys.alone_ipc_s": get("memsys.alone_ipc").total_s,
    })
    _percentiles(out, "memsys.run_s", get("memsys.run").durations)

    out.update({
        "reliability.workloads": get("reliability.execute").calls,
        "reliability.execute_s": get("reliability.execute").total_s,
        "reliability.self_s": (
            get("reliability.execute").self_s + get("reliability.build").self_s
        ),
        "reliability.build_s": get("reliability.build").total_s,
    })
    return out
