"""The three workloads, each driven by one process at a time on one core.

``paper-quick``
    ``python -m repro experiments --profile quick --jobs 1`` cold, then
    warm against the same cache, then one-figure warm queries: how a
    user regenerates the paper.
``query-warm``
    A closed loop, one client, one request at a time, of
    ``python -m repro run --scenario FILE --json -`` on a warm cache:
    the single-question user. It never enters the simulator.
``paper-scale``
    In-process ``Session(jobs=1).sweep`` calls of the Fig 10 Lassen
    headline cell (1024 GPUs, ImageNet-1k): few cells, millions of
    sample accesses each.

Every workload reports all end-to-end metrics (:data:`END_TO_END`); the
README says what each one measures on each workload. ``trace=True``
runs the traced variant instead and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks as chk
import spans
from common import (
    ROOT,
    TRACES,
    WORK,
    Checks,
    ChildRun,
    digest,
    fresh_dir,
    median,
    python,
    repro,
    run_child,
    tail,
)
from host import HostClock

#: End-to-end metric -> unit; every workload reports each of them.
END_TO_END = {
    "cells_per_s": "cells/s",
    "warm_wall_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, in reporting order."""
    units = {"import.repro_s": "s", "import.numpy_s": "s"}
    for name in spans.SPAN_NAMES:
        units[f"{name}_s"] = "s"
    for name in spans.CALL_COUNTED:
        units[f"{name}_calls"] = "count"
    units["sweep.cache_put_bytes"] = "bytes"
    for name in spans.COUNT_NAMES:
        units[f"count.{name}"] = "count"
    units["trace.overhead_s"] = "s"
    units["failed_frac"] = "fraction"
    return units


#: Fresh-interpreter imports timed per set-up figure (median reported).
IMPORT_REPS = 3
#: What each workload's entry point imports once it runs (``repro.cli``
#: itself is lazy). ``setup_s`` and ``import.repro_s`` time these in a
#: fresh interpreter.
QUICK_MODULES = "repro.cli, repro.experiments.paper"
QUERY_MODULES = "repro.cli, repro.api"
SCALE_MODULES = "repro.api"
#: paper-quick's warm phase after its cold pass: a fixed number of warm
#: passes and one-figure queries, one warm pass to every two queries, so
#: every run takes the same number of samples whatever the host's speed.
QUICK_WARM_PASSES = 3
QUICK_QUERIES = 4
#: paper-scale's floor: on a busy 2-vCPU host a sweep takes 7 s, so a
#: 20-second budget alone fits two, and a median of two is their mean.
SCALE_MIN_SWEEPS = 3
SCALE_WARM_PASSES = 3
WORKER = Path(__file__).resolve().parent / "worker.py"


@dataclass
class Report:
    """What one run of a workload measured and checked."""

    metrics: dict[str, float]
    checks: Checks
    notes: dict = field(default_factory=dict)


class WorkloadError(RuntimeError):
    """The program crashed: there is nothing to measure."""


def _require(run: ChildRun, what: str) -> ChildRun:
    if not run.ok:
        raise WorkloadError(f"{what} exited {run.returncode}:\n{run.stderr[-4000:]}")
    return run


def _worker(job: str, args: dict, tag: str) -> tuple[ChildRun, dict]:
    args_path, out_path = WORK / f"{tag}.args.json", WORK / f"{tag}.result.json"
    args_path.write_text(json.dumps(args))
    run = _require(
        run_child(python(str(WORKER), job, str(args_path), str(out_path)), tag),
        f"worker {job}",
    )
    return run, json.loads(out_path.read_text())


def _traced_pair(job: str, args: dict, tag: str, seed: int) -> tuple[dict, dict]:
    """The same worker job untraced, then traced, each in a fresh interpreter."""
    _, plain = _worker(job, {**args(f"{tag}-plain"), "trace": False}, f"{tag}-plain")
    trace_path = spans_path(tag, seed)
    _, traced = _worker(
        job, {**args(f"{tag}-traced"), "trace": True, "trace_path": str(trace_path)},
        f"{tag}-traced",
    )
    return plain, traced


def spans_path(workload: str, seed: int) -> Path:
    return TRACES / f"{workload}-seed{seed}.json"


def _setup_imports(clock: HostClock, modules: str) -> list[ChildRun]:
    """Fresh interpreters importing ``modules``, each after a calibration."""
    runs = [clock.run(python("-c", f"import {modules}"), f"import-{modules}-{i}")
            for i in range(IMPORT_REPS)]
    for run in runs:
        _require(run, f"import {modules}")
    return runs


def _normalized(clock: HostClock, runs: list[ChildRun]) -> list[float]:
    """Wall times of timed children at the reference host speed."""
    return [clock.normalized(run.wall_s) for run in runs]


def _relative(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _layer_metrics(traced: dict, clock: HostClock, modules: str, overhead_s: float,
                   checks: Checks) -> dict:
    """Per-layer metrics of a traced run; ``modules`` is what its command imports.

    The import figures are timed as ``setup_s`` times its imports, so
    they read on the same (reference-speed) scale.
    """
    entry = _setup_imports(clock, modules)
    numpy = _setup_imports(clock, "numpy")
    clock.finish()
    metrics = {
        "import.repro_s": median(_normalized(clock, entry)),
        "import.numpy_s": median(_normalized(clock, numpy)),
        **traced["metrics"],
        "trace.overhead_s": overhead_s,
        "failed_frac": checks.failed_frac,
    }
    return {name: metrics[name] for name in per_layer_units()}


# -- paper-quick ------------------------------------------------------------


def paper_quick(seed: int, seconds: float, trace: bool, tiny: bool = False,
                fault: str | None = None) -> Report:
    figures = ["fig15"] if tiny else None
    query_figure = "fig15" if tiny else "fig8"
    base = ["experiments", "--profile", "quick", "--jobs", "1", "--seed", str(seed)]
    passes = base + (["--figures", ",".join(figures)] if figures else [])
    clock = HostClock("quick")
    checks = Checks()

    if trace:
        def args(tag):
            out_dir = fresh_dir(WORK / tag)
            return {"seed": seed, "figures": figures, "cache_dir": str(out_dir / "cache"),
                    "out_dir": str(out_dir)}

        plain, traced = _traced_pair("quick", args, "paper-quick", seed)
        cold_text, warm_text = (Path(p["stdout"]).read_text() for p in traced["passes"])
        n_cells, samples, result_digest = chk.check_quick_cold(
            checks, seed, figures, cold_text, Path(traced["passes"][0]["stdout"]).parent / "cache",
            mismatch_reference=fault == "mismatch-reference",
        )
        chk.check_quick_warm(checks, n_cells, cold_text, warm_text,
                             traced["passes"][1]["code"] == 0)
        overhead = sum(p["wall_s"] for p in traced["passes"]) - sum(
            p["wall_s"] for p in plain["passes"]
        )
        return Report(_layer_metrics(traced, clock, QUICK_MODULES, overhead, checks), checks,
                      {"digest": result_digest, "trace": _relative(spans_path("paper-quick", seed)),
                       "calibration_s": clock.samples})

    # Set-up: fresh interpreters importing what the command loads, plus
    # the input generation (here only the fresh cache directory).
    imports = _setup_imports(clock, QUICK_MODULES)
    gen = time.perf_counter()
    cache = fresh_dir(WORK / "quick-cache")
    gen_s = time.perf_counter() - gen

    cold = clock.run(repro(*passes, "--cache-dir", str(cache)), "quick-cold")
    _require(cold, "cold pass")
    # Then the warm phase: warm passes and one-figure queries, one warm
    # pass to every two queries. The cold pass alone takes most of a
    # 20-second budget, so the phase is a fixed count, not a time budget.
    n_warm, n_queries = (1, 2) if tiny else (QUICK_WARM_PASSES, QUICK_QUERIES)
    warm_runs: list[ChildRun] = []
    queries: list[ChildRun] = []
    while len(warm_runs) < n_warm or len(queries) < n_queries:
        warm_turn = len(warm_runs) * 2 <= len(queries) or len(queries) == n_queries
        if warm_turn and len(warm_runs) < n_warm:
            warm_runs.append(clock.run(repro(*passes, "--cache-dir", str(cache)),
                                       f"quick-warm-{len(warm_runs)}"))
        else:
            queries.append(clock.run(
                repro(*base, "--figures", query_figure, "--cache-dir", str(cache)),
                f"quick-query-{len(queries)}",
            ))
    clock.finish()

    n_cells, samples, result_digest = chk.check_quick_cold(
        checks, seed, figures, cold.stdout, cache,
        mismatch_reference=fault == "mismatch-reference",
    )
    for run in warm_runs:
        chk.check_quick_warm(checks, n_cells, cold.stdout, run.stdout, run.ok)
    for run in queries:
        chk.check_figure_query(checks, query_figure, cold.stdout, run.stdout, run.ok)
    cold_s = clock.normalized(cold.wall_s)
    query_walls = _normalized(clock, queries)
    metrics = {
        "cells_per_s": n_cells / cold_s,
        "warm_wall_s": median(_normalized(clock, warm_runs)),
        "query_p50_s": median(query_walls),
        "query_tail_s": tail(query_walls),
        "samples_per_s": samples / cold_s,
        "peak_rss_mb": cold.maxrss_mb,
        "setup_s": median(_normalized(clock, imports)) + clock.normalized(gen_s),
    }
    notes = {
        "digest": result_digest,
        "cold_wall_s": cold.wall_s,
        "warm_wall_s": [run.wall_s for run in warm_runs],
        "query_wall_s": [run.wall_s for run in queries],
        "samples_simulated": samples,
        "calibration_s": clock.samples,
    }
    return Report(metrics, checks, notes)


# -- query-warm ---------------------------------------------------------------

#: Registry names the scenarios are drawn from (datasets x systems x Fig 8).
QUERY_DATASETS = ("mnist", "imagenet1k", "imagenet22k", "openimages", "cosmoflow",
                  "cosmoflow512")
QUERY_DATASET_SAMPLES = {
    "mnist": 50_000, "imagenet1k": 1_281_167, "imagenet22k": 14_197_122,
    "openimages": 1_743_042, "cosmoflow": 262_144, "cosmoflow512": 10_000,
}
QUERY_SYSTEMS = ("sec6_cluster", "piz_daint", "lassen")
QUERY_POLICIES = ("naive", "staging_buffer", "deepio:ordered", "deepio:opportunistic",
                  "parallel_staging", "lbann:dynamic", "lbann:preloading", "locality_aware",
                  "nopfs")
#: Every drawn scenario is shrunk to about this many samples, so each
#: query answers a similar number of sample accesses whatever the draw.
QUERY_TARGET_SAMPLES = 8192


def draw_scenarios(seed: int, count: int) -> list[dict]:
    """``count`` distinct small scenarios, one dataset after another, drawn by ``seed``."""
    rng = random.Random(seed)
    out: list[dict] = []
    while len(out) < count:
        dataset = QUERY_DATASETS[len(out) % len(QUERY_DATASETS)]
        scenario = {
            "dataset": dataset,
            "system": f"{rng.choice(QUERY_SYSTEMS)}:{rng.choice((2, 4, 8))}",
            "policy": rng.choice(QUERY_POLICIES),
            "batch_size": rng.choice((16, 32)),
            "num_epochs": 2,
            "seed": seed,
            "scale": min(1.0, QUERY_TARGET_SAMPLES / QUERY_DATASET_SAMPLES[dataset]),
        }
        if scenario not in out:  # a sweep rejects duplicate cells
            out.append(scenario)
    return out


def _query_setup(seed: int, count: int, rep: int,
                 clock: HostClock) -> tuple[float, Path, list[dict], dict]:
    """Draw the scenarios and warm a fresh cache with one sweep.

    Returns (generation + warm-up wall seconds, cache dir, scenarios,
    the manifest the warm-up wrote).
    """
    start = time.perf_counter()
    root = fresh_dir(WORK / f"query-{rep}")
    scenarios = draw_scenarios(seed, count)
    listing = root / "scenarios.json"
    listing.write_text(json.dumps(scenarios))
    for i, scenario in enumerate(scenarios):
        (root / f"scenario-{i}.json").write_text(json.dumps(scenario))
    drawn_s = time.perf_counter() - start
    warmup = clock.run(
        repro("sweep", "run", "--scenarios", str(listing), "--jobs", "1",
              "--cache-dir", str(root / "cache"), "--manifest", str(root / "manifest.json")),
        f"query-warmup-{rep}",
    )
    _require(warmup, "warm-up sweep")
    manifest = json.loads((root / "manifest.json").read_text())
    return drawn_s + warmup.wall_s, root, scenarios, manifest


def query_warm(seed: int, seconds: float, trace: bool, tiny: bool = False,
               fault: str | None = None) -> Report:
    count = 3 if tiny else 12
    clock = HostClock("query")
    setups = [_query_setup(seed, count, rep, clock) for rep in range(1 if tiny else 3)]
    _, root, scenarios, manifest = setups[-1]
    cache = root / "cache"
    keys = [key for _, key in manifest["cells"]]
    written = chk.read_entries(cache)
    pool = [i for i, key in enumerate(keys) if written.get(key, {}).get("result") is not None]
    if not pool:
        raise WorkloadError("every drawn scenario is unsupported")
    if fault == "tamper-cache":
        _tamper(cache, keys[pool[0]])
    checks = Checks()
    notes = {"scenarios": len(scenarios), "answerable": len(pool),
             "digest": chk.results_digest(written, [keys[i] for i in pool])}

    if trace:
        queries = [pool[i % len(pool)] for i in range(2 if tiny else 8)]

        def args(tag):
            return {"scenarios": [str(root / f"scenario-{i}.json") for i in queries],
                    "cache_dir": str(cache), "out_dir": str(fresh_dir(WORK / tag))}

        plain, traced = _traced_pair("query", args, "query-warm", seed)
        for i, answer in zip(queries, traced["answers"]):
            chk.check_answer(checks, keys[i], written, Path(answer["stdout"]).read_text(),
                             answer["code"] == 0)
        overhead = sum(a["wall_s"] for a in traced["answers"]) - sum(
            a["wall_s"] for a in plain["answers"]
        )
        layer_metrics = _layer_metrics(traced, clock, QUERY_MODULES, overhead, checks)
        notes["trace"] = _relative(spans_path("query-warm", seed))
        notes["calibration_s"] = clock.samples
        return Report(layer_metrics, checks, notes)

    imports = _setup_imports(clock, QUERY_MODULES)
    # The closed loop: the next request starts when the previous one ends.
    # Every fourth request is a warm `sweep run` over all drawn cells.
    warm_sweep = repro("sweep", "run", "--scenarios", str(root / "scenarios.json"),
                       "--jobs", "1", "--cache-dir", str(cache))
    begin = time.perf_counter()
    warms: list[ChildRun] = []
    answers: list[ChildRun] = []
    asked: list[int] = []
    while True:
        warm_turn = len(warms) * 3 <= len(answers)
        if answers:
            last = warms[-1] if warm_turn else answers[-1]
            if time.perf_counter() - begin + last.wall_s > seconds:
                break
        if warm_turn:
            warms.append(clock.run(warm_sweep, f"query-warm-sweep-{len(warms)}"))
            continue
        i = pool[len(answers) % len(pool)]
        asked.append(i)
        answers.append(clock.run(
            repro("run", "--scenario", str(root / f"scenario-{i}.json"),
                  "--cache-dir", str(cache), "--json", "-"),
            f"query-{len(answers)}",
        ))
    clock.finish()

    for warm in warms:
        checks.attempt(len(scenarios))
        stats = chk.sweep_stats(warm.stdout)
        checks.expect(warm.ok and stats is not None and stats["misses"] == 0, len(scenarios),
                      "warm sweep re-simulated cells")
    for i, run in zip(asked, answers):
        chk.check_answer(checks, keys[i], written, run.stdout, run.ok)
    samples = _scenario_samples(scenarios)
    walls = _normalized(clock, answers)
    loop_s = sum(walls)
    metrics = {
        "cells_per_s": len(answers) / loop_s,
        "warm_wall_s": median(_normalized(clock, warms)),
        "query_p50_s": median(walls),
        "query_tail_s": tail(walls),
        "samples_per_s": sum(samples[i] for i in asked) / loop_s,
        "peak_rss_mb": median([run.maxrss_mb for run in answers]),
        "setup_s": median(_normalized(clock, imports))
        + clock.normalized(median([s for s, *_ in setups])),
    }
    notes.update({
        "warm_wall_s": [run.wall_s for run in warms],
        "query_wall_s": [run.wall_s for run in answers],
        "calibration_s": clock.samples,
    })
    return Report(metrics, checks, notes)


def _scenario_samples(scenarios: list[dict]) -> list[int]:
    """Sample accesses each scenario's answer covers (N x L x E)."""
    chk.import_program()
    from repro.api import Scenario

    return [chk.sample_accesses(Scenario.from_dict(s).build_config()) for s in scenarios]


def _tamper(cache: Path, key: str) -> None:
    """Alter one stored result, keeping the entry well-formed."""
    path = cache / key[:2] / f"{key}.json"
    entry = json.loads(path.read_text())
    entry["result"]["prestage_time_s"] = entry["result"].get("prestage_time_s", 0.0) + 1.0
    path.write_text(json.dumps(entry))


# -- paper-scale --------------------------------------------------------------


def paper_scale(seed: int, seconds: float, trace: bool, tiny: bool = False,
                fault: str | None = None) -> Report:
    cell = {"seed": seed, "system": "lassen:16" if tiny else "lassen:1024",
            "scale": 0.01 if tiny else 1.0}
    clock = HostClock("scale")
    checks = Checks()

    def args(tag):
        root = fresh_dir(WORK / tag)
        return {**cell, "scenarios_path": str(root / "scenarios.json"),
                "cache_root": str(root)}

    if trace:
        def traced_args(tag):
            return {**args(tag), "seconds": 0.0, "min_sweeps": 1}

        plain, traced = _traced_pair("scale", traced_args, "paper-scale", seed)
        result_digest = _check_scale(checks, traced, [])

        def busy(out):
            return sum(s["wall_s"] for s in out["sweeps"])

        return Report(
            _layer_metrics(traced, clock, SCALE_MODULES, busy(traced) - busy(plain), checks),
            checks,
            {"digest": result_digest, "trace": _relative(spans_path("paper-scale", seed)),
             "calibration_s": clock.samples},
        )

    imports = _setup_imports(clock, SCALE_MODULES)
    worker_args = {**args("paper-scale"), "seconds": seconds,
                   "min_sweeps": 1 if tiny else SCALE_MIN_SWEEPS}
    run, out = _worker("scale", worker_args, "paper-scale")
    # The warm pass: a fresh process asks the last sweep's question again.
    warm_argv = repro("sweep", "run", "--scenarios", worker_args["scenarios_path"],
                      "--jobs", "1", "--cache-dir", out["sweeps"][-1]["cache"])
    warms = [clock.run(warm_argv, f"scale-warm-{i}") for i in range(SCALE_WARM_PASSES)]
    clock.finish()
    clock.samples += out["calibration_s"]
    result_digest = _check_scale(checks, out, warms)
    sweep_s = median([clock.normalized(s["wall_s"]) for s in out["sweeps"]])
    cell_s = [clock.normalized(wall) for wall in out["cell_wall_s"]]
    metrics = {
        "cells_per_s": median([s["cells"] / clock.normalized(s["wall_s"]) for s in out["sweeps"]]),
        "warm_wall_s": median(_normalized(clock, warms)),
        "query_p50_s": median(cell_s),
        "query_tail_s": tail(cell_s),
        "samples_per_s": out["samples_per_sweep"] / sweep_s,
        "peak_rss_mb": run.maxrss_mb,
        "setup_s": median(_normalized(clock, imports)) + clock.normalized(out["build_s"]),
    }
    return Report(metrics, checks, {
        "digest": result_digest,
        "sweep_wall_s": [s["wall_s"] for s in out["sweeps"]],
        "warm_wall_s": [w.wall_s for w in warms],
        "samples_per_sweep": out["samples_per_sweep"],
        "calibration_s": clock.samples,
    })


def _check_scale(checks: Checks, out: dict, warms: list[ChildRun]) -> str:
    """Every sweep simulated every cell, warm passes hit every cell, and
    results respect the analytic lower bound."""
    n = len(out["bounds"])
    for sweep in out["sweeps"]:
        checks.attempt(sweep["cells"])
        checks.expect(sweep["misses"] == sweep["cells"] and sweep["unsupported"] == 0,
                      sweep["cells"], "a paper-scale cell was cached or unsupported")
    for warm in warms:
        checks.attempt(n)
        stats = chk.sweep_stats(warm.stdout)
        checks.expect(warm.ok and stats is not None and stats["hits"] == n
                      and stats["misses"] == 0, n, "the warm pass missed a cell")
    for bound in out["bounds"]:
        checks.expect(bound["total_s"] >= bound["lower_bound_s"], 1,
                      f"{bound['policy']} beats analytic_lower_bound")
    return digest(out["results"])


WORKLOADS = {
    "paper-quick": paper_quick,
    "query-warm": query_warm,
    "paper-scale": paper_scale,
}
