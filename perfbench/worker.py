"""In-process drivers, run as a child of ``run.py``: ``worker.py JOB ARGS OUT``.

``ARGS`` and ``OUT`` are JSON files. Every job drives the program only
through its public surfaces — ``repro.cli.main(argv)`` (the function
behind ``python -m repro``) and ``repro.api.Scenario``/``Session`` —
and, when ``ARGS["trace"]`` is set, first installs the per-layer spans
of :mod:`spans`. Traced and untraced runs execute the same sequence in
fresh interpreters, so their wall-time difference is the tracing
overhead.

Jobs:

``quick``
    ``experiments --profile quick`` cold, then warm, on one cache dir.
``query``
    ``run --scenario FILE --json -`` once per scenario file, on a warm
    cache dir.
``scale``
    The Fig 10 Lassen headline cell through ``Session(jobs=1).sweep``:
    cold sweeps on fresh sessions and caches, at least ``min_sweeps``
    and then while the next one fits the time budget.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from checks import sample_accesses  # noqa: E402
from host import HostClock  # noqa: E402

#: The Fig 10 Lassen headline cell (Sec 7.1: 1024 GPUs, ImageNet-1k).
SCALE_POLICIES = ("pytorch", "lbann_dynamic", "nopfs", "naive")


def scale_scenarios(seed: int, system: str = "lassen:1024", scale: float = 1.0):
    from repro.api import Scenario

    return [
        Scenario(
            dataset="imagenet1k",
            system=system,
            policy=policy,
            batch_size=32,
            num_epochs=3,
            scale=scale,
            seed=seed,
        )
        for policy in SCALE_POLICIES
    ]


def _cli(argv: list[str]) -> tuple[int, str, float]:
    import repro.cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = repro.cli.main(argv)
    return code, buffer.getvalue(), time.perf_counter() - start


def job_quick(args: dict, tracer) -> dict:
    argv = [
        "experiments", "--profile", "quick", "--jobs", "1",
        "--seed", str(args["seed"]), "--cache-dir", args["cache_dir"],
    ]
    if args.get("figures"):
        argv += ["--figures", ",".join(args["figures"])]
    passes = []
    for name in ("cold", "warm"):
        code, text, wall = _cli(argv)
        path = Path(args["out_dir"]) / f"{name}.txt"
        path.write_text(text)
        passes.append({"name": name, "code": code, "wall_s": wall, "stdout": str(path)})
    return {"passes": passes}


def job_query(args: dict, tracer) -> dict:
    answers = []
    for i, scenario in enumerate(args["scenarios"]):
        code, text, wall = _cli(
            ["run", "--scenario", scenario, "--cache-dir", args["cache_dir"], "--json", "-"]
        )
        path = Path(args["out_dir"]) / f"answer-{i}.txt"
        path.write_text(text)
        answers.append({"code": code, "wall_s": wall, "stdout": str(path)})
    return {"answers": answers}


def job_scale(args: dict, tracer) -> dict:
    from repro.api import Session
    from repro.sweep.events import CellFinished

    seed = int(args["seed"])
    deadline = time.perf_counter() + float(args["seconds"])
    build_start = time.perf_counter()
    scenarios = scale_scenarios(seed, args["system"], args["scale"])
    build_s = time.perf_counter() - build_start
    Path(args["scenarios_path"]).write_text(json.dumps([s.to_dict() for s in scenarios]))

    # Cold sweeps on fresh sessions and fresh caches, at least
    # ``min_sweeps`` and then while the next one fits the budget, each
    # after a host calibration (see host.HostClock; the harness
    # normalizes with these samples and its own). Each cache is a
    # directory, so a fresh process can ask the last sweep's question
    # again warm.
    clock = HostClock("scale-worker")
    sweeps, cell_wall_s = [], []
    outcome = None
    while (len(sweeps) < args["min_sweeps"]
           or time.perf_counter() + sweeps[-1]["wall_s"] <= deadline):
        clock.sample()
        cache = Path(args["cache_root"]) / f"sweep-{len(sweeps)}"
        session = Session(jobs=1, cache=f"dir:{cache}")

        def on_event(event):
            if isinstance(event, CellFinished):
                cell_wall_s.append(event.elapsed_s)

        start = time.perf_counter()
        outcome = session.sweep(scenarios, on_event=on_event)
        sweeps.append(
            {
                "wall_s": time.perf_counter() - start,
                "cells": outcome.stats.cells,
                "misses": outcome.stats.misses,
                "unsupported": len(outcome.unsupported),
                "cache": str(cache),
            }
        )
    clock.finish()

    # Everything below checks outputs; it is not part of any timing.
    metrics = tracer.metrics() if tracer is not None else None
    if tracer is not None:
        tracer.dump(Path(args["trace_path"]))
    from repro.sim.engine import analytic_lower_bound

    results, samples, bounds, lower_bounds = {}, 0, [], {}
    for scenario in scenarios:
        tag = scenario.fingerprint()
        if tag not in outcome.results:
            continue
        config = scenario.build_config()
        result = outcome[tag]
        results[tag] = result.to_dict()
        samples += sample_accesses(config)
        # The bound depends on the config alone, not on the policy.
        config_key = json.dumps(config.to_dict(), sort_keys=True)
        if config_key not in lower_bounds:
            lower_bounds[config_key] = analytic_lower_bound(config)
        lower = lower_bounds[config_key]
        bounds.append(
            {"policy": result.policy, "total_s": result.total_time_s, "lower_bound_s": lower}
        )
    return {
        "build_s": build_s,
        "cell_wall_s": cell_wall_s,
        "sweeps": sweeps,
        "samples_per_sweep": samples,
        "calibration_s": clock.samples,
        "bounds": bounds,
        "results": results,
        "metrics": metrics,
    }


JOBS = {"quick": job_quick, "query": job_query, "scale": job_scale}


def main(argv: list[str]) -> int:
    job, args_path, out_path = argv
    args = json.loads(Path(args_path).read_text())
    if "trace" in args:
        # Traced runs and their untraced twins import the same modules
        # up front, so the two differ only by the spans.
        spans.load_program()
    tracer = None
    if args.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    out = JOBS[job](args, tracer)
    out["wall_s"] = time.perf_counter() - start
    if tracer is not None and out.get("metrics") is None:
        out["metrics"] = tracer.metrics()
        tracer.dump(Path(args["trace_path"]))
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
