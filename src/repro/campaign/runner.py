"""The campaign runner: fan the experiment registry out across workers.

Because every experiment is deterministic (content-hash seeding) and every
task is independent, a campaign is embarrassingly parallel: the runner
plans tasks (whole experiments, or per-config session shards for the
experiments that support it), skips everything already in the artifact
store, executes the rest on a process pool, and persists each result as it
lands.  A killed campaign therefore resumes for free -- re-running it skips
the completed artifacts and only executes what is missing.

Worker crashes (OOM killer, segfault in a native extension) break the whole
``ProcessPoolExecutor``; the runner restarts the pool and retries the
not-yet-finished tasks up to ``max_pool_restarts`` times, then falls back
to in-process serial execution so a flaky pool can never lose a campaign.
"""

from __future__ import annotations

import os
import time
import uuid
import dataclasses
import json
import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional, Sequence

from ..core.scale import ExperimentScale
from ..experiments import EXPERIMENTS, run_experiment
from ..experiments.base import ExperimentResult
from ..obs import AnyObs, Obs
from .events import (
    CACHE_HIT,
    CAMPAIGN_FINISHED,
    CAMPAIGN_STARTED,
    POOL_RESTART,
    TASK_FAILED,
    TASK_FINISHED,
    TASK_REQUEUED,
    TASK_STARTED,
    WORKER_CRASHED,
    CampaignEvent,
    EventLog,
)
from .shards import SESSION_SHARDED, Task, merge_shard_results, plan_tasks
from .store import ArtifactStore, code_fingerprint, scale_fingerprint

#: crash-injection hook for exercising the pool-restart path end to end:
#: ``REPRO_CRASH_WORKER_ONCE="<experiment_id>:<flag_path>"`` makes the first
#: pool worker that picks up that experiment die hard (``os._exit``), exactly
#: once (the flag file is the at-most-once latch).  The serial fallback and
#: ``jobs=1`` runs are never killed -- the hook only fires in pool children.
CRASH_ENV = "REPRO_CRASH_WORKER_ONCE"


def _maybe_crash_for_test(experiment_id: str) -> None:
    spec = os.environ.get(CRASH_ENV)
    if not spec:
        return
    target, _, flag_path = spec.partition(":")
    if not flag_path or (target and target != experiment_id):
        return
    if multiprocessing.current_process().name == "MainProcess":
        return
    try:
        flag = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return  # someone already crashed for this flag
    os.close(flag)
    os._exit(3)


def _execute_task(payload: tuple) -> tuple[dict, float, str]:
    """Process-pool entry point: run one task, return a picklable triple."""
    experiment_id, shard, kwargs, scale = payload
    _maybe_crash_for_test(experiment_id)
    task = Task(experiment_id, shard=shard, kwargs=kwargs)
    started = time.perf_counter()
    result = run_experiment(task.experiment_id, scale, **task.run_kwargs())
    elapsed = time.perf_counter() - started
    return result.to_dict(), elapsed, multiprocessing.current_process().name


@dataclass
class TaskOutcome:
    """What happened to one scheduled task."""

    task: Task
    status: str  # "cached" | "executed" | "failed"
    result: Optional[ExperimentResult] = None
    elapsed: float = 0.0
    worker: Optional[str] = None
    error: Optional[str] = None


@dataclass
class CampaignSummary:
    """Everything a caller needs after :meth:`CampaignRunner.run`."""

    run_id: str
    run_dir: Path
    scale: ExperimentScale
    #: merged per-experiment results, in requested order (failed ones absent)
    results: dict[str, ExperimentResult] = field(default_factory=dict)
    #: wall time attributed to each experiment (sum over its tasks)
    elapsed: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    outcomes: list[TaskOutcome] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    failed: int = 0
    #: how many times the process pool died and was rebuilt
    pool_restarts: int = 0
    total_elapsed: float = 0.0

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.json"

    @property
    def events_path(self) -> Path:
        return self.run_dir / "events.jsonl"

    @property
    def obs_path(self) -> Path:
        return self.run_dir / "obs.json"


class CampaignRunner:
    """Schedule the experiment registry over an artifact store."""

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        scale: Optional[ExperimentScale] = None,
        jobs: int = 1,
        granularity: str = "auto",
        force: bool = False,
        max_pool_restarts: int = 2,
        stream: Optional[IO] = None,
        run_id: Optional[str] = None,
        shard_filter: Optional[Sequence[str]] = None,
        obs: Optional[AnyObs] = None,
    ):
        self.store = store if store is not None else ArtifactStore()
        self.scale = scale or ExperimentScale.default()
        self.jobs = max(1, int(jobs))
        self.granularity = granularity
        self.force = force
        self.max_pool_restarts = max_pool_restarts
        self.stream = stream
        self.shard_filter = tuple(shard_filter) if shard_filter else None
        self.run_id = run_id or time.strftime("%Y%m%dT%H%M%S") + "-" + uuid.uuid4().hex[:6]
        # a campaign records by default: the per-run obs.json is how
        # `repro trace` answers "what actually happened" after the fact
        self.obs = obs if obs is not None else Obs()

    # ------------------------------------------------------------------
    def run(self, experiment_ids: Optional[Sequence[str]] = None) -> CampaignSummary:
        ids = list(experiment_ids) if experiment_ids else sorted(EXPERIMENTS)
        unknown = [i for i in ids if i not in EXPERIMENTS]
        if unknown:
            raise KeyError(
                f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}"
            )
        tasks = plan_tasks(ids, self.granularity, self.jobs,
                           shard_filter=self.shard_filter)
        summary = CampaignSummary(
            run_id=self.run_id,
            run_dir=self.store.runs_dir / self.run_id,
            scale=self.scale,
        )
        summary.run_dir.mkdir(parents=True, exist_ok=True)
        log = EventLog(summary.events_path, stream=self.stream, obs=self.obs)
        started = time.perf_counter()
        log.emit(CampaignEvent(CAMPAIGN_STARTED, detail={
            "run_id": self.run_id,
            "tasks": len(tasks),
            "jobs": self.jobs,
            "experiments": ids,
            "scale_fp": scale_fingerprint(self.scale),
            "code_fp": code_fingerprint(),
        }))

        outcomes: dict[Task, TaskOutcome] = {}
        pending: list[Task] = []
        for task in tasks:
            outcome = None if self.force else self._from_cache(task, log)
            if outcome is not None:
                outcomes[task] = outcome
            else:
                pending.append(task)

        if pending:
            pending = self._order_longest_first(pending)
            if self.jobs == 1:
                self._run_serial(pending, outcomes, log)
            else:
                summary.pool_restarts = self._run_pool(pending, outcomes, log)

        self._merge_and_record(ids, tasks, outcomes, summary)
        summary.total_elapsed = time.perf_counter() - started
        self.obs.observe_s("campaign.run_s", summary.total_elapsed)
        log.emit(CampaignEvent(CAMPAIGN_FINISHED, elapsed=summary.total_elapsed,
                               detail={"executed": summary.executed,
                                       "cached": summary.cached,
                                       "failed": summary.failed}))
        self._write_manifest(summary, ids)
        self.obs.export_json(summary.obs_path)
        return summary

    # -- scheduling ----------------------------------------------------
    def _prior_elapsed(self) -> dict[tuple, float]:
        """Per-task wall time from earlier runs' manifests, newest wins.

        Unreadable or half-written manifests are skipped -- scheduling is a
        hint, never a correctness dependency.
        """
        manifests = []
        runs_dir = self.store.runs_dir
        if not runs_dir.exists():
            return {}
        for path in runs_dir.glob("*/manifest.json"):
            try:
                manifests.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue
        manifests.sort(key=lambda m: float(m.get("created_at") or 0.0))
        elapsed: dict[tuple, float] = {}
        for manifest in manifests:
            for entry in manifest.get("tasks", []):
                if entry.get("status") == "failed":
                    continue
                shard = entry.get("shard")
                if isinstance(shard, list):
                    shard = tuple(shard)
                value = float(entry.get("elapsed") or 0.0)
                if value > 0.0:
                    elapsed[(entry.get("experiment_id"), shard)] = value
        return elapsed

    def _order_longest_first(self, pending: list[Task]) -> list[Task]:
        """Submit the historically slowest tasks first.

        With a pool, launching the long poles early minimizes the makespan
        tail (a table2 shard finishing last on an otherwise idle pool);
        tasks with no recorded history keep their declared order after the
        known ones -- the sort is stable and unknown tasks share key 0.
        """
        prior = self._prior_elapsed()
        if not prior:
            return pending
        return sorted(
            pending,
            key=lambda t: -prior.get((t.experiment_id, t.shard), 0.0),
        )

    # -- cache ---------------------------------------------------------
    def _from_cache(self, task: Task, log: EventLog) -> Optional[TaskOutcome]:
        key = self.store.key(task.experiment_id, self.scale, task.shard)
        payload = self.store.get_payload(key)
        if payload is None:
            return None
        saved = float(payload.get("elapsed") or 0.0)
        log.emit(CampaignEvent(CACHE_HIT, experiment_id=task.experiment_id,
                               shard=task.shard, elapsed=saved, cache="hit",
                               worker="cache"))
        self.obs.inc("campaign.tasks", status="cached")
        return TaskOutcome(
            task, "cached",
            result=ExperimentResult.from_dict(payload["result"]),
            elapsed=saved, worker="cache",
        )

    def _record_success(
        self, task: Task, result_dict: dict, elapsed: float, worker: str,
        outcomes: dict[Task, TaskOutcome], log: EventLog,
    ) -> None:
        result = ExperimentResult.from_dict(result_dict)
        key = self.store.key(task.experiment_id, self.scale, task.shard)
        self.store.put(key, result, elapsed, worker=worker)
        outcomes[task] = TaskOutcome(task, "executed", result=result,
                                     elapsed=elapsed, worker=worker)
        self.obs.inc("campaign.tasks", status="executed")
        self.obs.observe_s(f"campaign.task_s.{task.experiment_id}", elapsed)
        log.emit(CampaignEvent(TASK_FINISHED, experiment_id=task.experiment_id,
                               shard=task.shard, elapsed=elapsed,
                               cache="miss", worker=worker))

    def _record_failure(
        self, task: Task, error: BaseException,
        outcomes: dict[Task, TaskOutcome], log: EventLog, worker: str,
    ) -> None:
        message = f"{type(error).__name__}: {error}"
        outcomes[task] = TaskOutcome(task, "failed", error=message, worker=worker)
        self.obs.inc("campaign.tasks", status="failed")
        self.obs.inc("campaign.task_errors", error=type(error).__name__)
        log.emit(CampaignEvent(TASK_FAILED, experiment_id=task.experiment_id,
                               shard=task.shard, error=message, worker=worker))

    # -- execution paths ----------------------------------------------
    def _run_serial(
        self, pending: list[Task], outcomes: dict[Task, TaskOutcome],
        log: EventLog,
    ) -> None:
        for task in pending:
            log.emit(CampaignEvent(TASK_STARTED, experiment_id=task.experiment_id,
                                   shard=task.shard, worker="serial"))
            try:
                result_dict, elapsed, _ = _execute_task(
                    (task.experiment_id, task.shard, task.kwargs, self.scale)
                )
            except Exception as error:
                self._record_failure(task, error, outcomes, log, worker="serial")
            else:
                self._record_success(task, result_dict, elapsed, "serial",
                                     outcomes, log)

    def _run_pool(
        self, pending: list[Task], outcomes: dict[Task, TaskOutcome],
        log: EventLog,
    ) -> int:
        """Run ``pending`` on a process pool; returns the restart count.

        A :class:`BrokenProcessPool` poisons every outstanding future, so a
        single crash surfaces once per in-flight task; the crash event is
        attributed to the task whose future raised it, and every task left
        without an outcome gets a ``task_requeued`` event before the pool
        is rebuilt -- the JSONL log then accounts for each task's full
        history across restarts, not just its final completion.
        """
        remaining = list(pending)
        restarts = 0
        while remaining:
            crashed = False
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            try:
                futures = {}
                for task in remaining:
                    log.emit(CampaignEvent(TASK_STARTED, worker="pool",
                                           experiment_id=task.experiment_id,
                                           shard=task.shard))
                    futures[executor.submit(
                        _execute_task,
                        (task.experiment_id, task.shard, task.kwargs, self.scale),
                    )] = task
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in done:
                        task = futures[future]
                        try:
                            result_dict, elapsed, worker = future.result()
                        except BrokenProcessPool as error:
                            crashed = True
                            log.emit(CampaignEvent(
                                WORKER_CRASHED,
                                experiment_id=task.experiment_id,
                                shard=task.shard,
                                error=str(error) or "pool died",
                            ))
                        except Exception as error:
                            self._record_failure(task, error, outcomes, log,
                                                 worker="pool")
                        else:
                            self._record_success(task, result_dict, elapsed,
                                                 worker, outcomes, log)
                    if crashed:
                        break
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
            remaining = [t for t in remaining if t not in outcomes]
            if not crashed or not remaining:
                return restarts
            restarts += 1
            serial = restarts > self.max_pool_restarts
            log.emit(CampaignEvent(POOL_RESTART, detail={
                "restart": restarts, "remaining": len(remaining),
                "mode": "serial" if serial else "pool",
            }))
            for task in remaining:
                log.emit(CampaignEvent(TASK_REQUEUED,
                                       experiment_id=task.experiment_id,
                                       shard=task.shard,
                                       detail={"restart": restarts}))
            if serial:
                # the pool keeps dying; finish in-process so the campaign
                # still completes (and a poisoned task fails loudly)
                self._run_serial(remaining, outcomes, log)
                return restarts
        return restarts

    # -- merge + manifest ---------------------------------------------
    def _merge_and_record(
        self, ids: list[str], tasks: list[Task],
        outcomes: dict[Task, TaskOutcome], summary: CampaignSummary,
    ) -> None:
        by_experiment: dict[str, list[Task]] = {}
        for task in tasks:
            by_experiment.setdefault(task.experiment_id, []).append(task)
        for outcome in (outcomes[t] for t in tasks if t in outcomes):
            summary.outcomes.append(outcome)
            if outcome.status == "cached":
                summary.cached += 1
            elif outcome.status == "executed":
                summary.executed += 1
            else:
                summary.failed += 1
        for experiment_id in ids:
            experiment_tasks = by_experiment[experiment_id]
            task_outcomes = [outcomes.get(t) for t in experiment_tasks]
            errors = [o.error for o in task_outcomes if o and o.error]
            if errors or any(o is None for o in task_outcomes):
                summary.failures[experiment_id] = (
                    "; ".join(errors) or "not executed"
                )
                continue
            summary.elapsed[experiment_id] = sum(o.elapsed for o in task_outcomes)
            if len(experiment_tasks) == 1 and experiment_tasks[0].shard is None:
                summary.results[experiment_id] = task_outcomes[0].result
                continue
            merged = merge_shard_results(
                experiment_id, [o.result for o in task_outcomes]
            )
            summary.results[experiment_id] = merged
            # publish the merged result under the whole-experiment key too,
            # so experiment-granularity consumers (report, `repro run`) hit
            # -- but only when the shards cover the experiment's full
            # declared set: a shard-filtered partial run must never
            # masquerade as the whole result
            shards = tuple(t.shard for t in experiment_tasks)
            if shards != SESSION_SHARDED.get(experiment_id):
                continue
            whole_key = self.store.key(experiment_id, self.scale)
            if self.force or not self.store.has(whole_key):
                self.store.put(whole_key, merged,
                               summary.elapsed[experiment_id], worker="merge")

    def _write_manifest(self, summary: CampaignSummary, ids: list[str]) -> None:
        manifest = {
            "run_id": summary.run_id,
            "created_at": time.time(),
            "scale": dataclasses.asdict(self.scale),
            "scale_fp": scale_fingerprint(self.scale),
            "code_fp": code_fingerprint(),
            "jobs": self.jobs,
            "granularity": self.granularity,
            "force": self.force,
            "experiments": ids,
            "counts": {
                "executed": summary.executed,
                "cached": summary.cached,
                "failed": summary.failed,
            },
            "pool_restarts": summary.pool_restarts,
            "total_elapsed": summary.total_elapsed,
            "tasks": [
                {
                    "experiment_id": o.task.experiment_id,
                    "shard": o.task.shard,
                    "digest": self.store.key(
                        o.task.experiment_id, self.scale, o.task.shard
                    ).digest,
                    "status": o.status,
                    "elapsed": o.elapsed,
                    "worker": o.worker,
                    "error": o.error,
                }
                for o in summary.outcomes
            ],
        }
        tmp = summary.manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, indent=1))
        tmp.replace(summary.manifest_path)


def run_campaign(
    experiment_ids: Optional[Sequence[str]] = None,
    scale: Optional[ExperimentScale] = None,
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
    granularity: str = "auto",
    force: bool = False,
    stream: Optional[IO] = None,
    shard_filter: Optional[Sequence[str]] = None,
) -> CampaignSummary:
    """One-call convenience wrapper around :class:`CampaignRunner`."""
    runner = CampaignRunner(store=store, scale=scale, jobs=jobs,
                            granularity=granularity, force=force, stream=stream,
                            shard_filter=shard_filter)
    return runner.run(experiment_ids)
