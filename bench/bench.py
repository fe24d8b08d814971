"""Seeded benchmark of shiftfold: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/bench.py --workload h3_decompose --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
One process, one thread, one caller: each workload is a closed loop in which
the next item starts only after the previous one finished and was checked.
Workloads are described in BENCHMARK.json and bench/README.md.

Set-up (import, input generation, input files) is repeated SETUP_REPS times
from a fresh import; `setup_s` is the median.  Then whole passes over the
workload's items run until the summed item time reaches --seconds, so every
pass has the same mix.  Baseline cases named in the ROADMAP run once after
the window; they are checked and recorded but kept out of the window's
metrics.  With --trace 1 one pass runs untraced, then the same pass traced,
then untraced again; answers must agree, and the per-layer metrics come from
the traced pass.

The last line of stdout is one JSON object; a full run record (samples,
environment, spans when traced) goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3
# The probe's time at reference speed (its 10th percentile on a 2-vCPU Intel
# Xeon VM).  Item times are scaled to this speed; see "Machine speed" in README.
PROBE_REF_MS = 2.5
HELD_OUT_SEED = 20040808  # keep for confirming a claim on a seed not tuned on
EXCLUDED = {
    "automorphism_from_alphabet_perm(G(2,10))": "21.6 s per call at the ROADMAP "
    "re-anchor; too long to repeat in every run, so excluded rather than shrunk",
}
END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mib", "MiB"),
]


def fresh_import():
    """Import shiftfold from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "shiftfold" or n.startswith("shiftfold.")]:
        del sys.modules[name]
    sf = importlib.import_module("shiftfold")
    if not Path(sf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: shiftfold imported from {sf.__file__}, not {SRC}")
    return sf, importlib.import_module("shiftfold.cli"), importlib.import_module("shiftfold.formats")


def _probe() -> int:
    """Fixed pure-Python work that uses no library code: tuples, hashing, sorting."""
    n = 1500
    rows = [tuple((i * 7 + x * 13) % n for x in range(3)) for i in range(n)]
    labels: dict = {}
    for r in rows:
        labels.setdefault(r, len(labels))
    return sum(labels[rows[i]] for i in sorted(range(n), key=rows.__getitem__))


def probe_ms() -> float:
    start = time.perf_counter()
    _probe()
    return (time.perf_counter() - start) * 1e3


def run_item(item, sf, probe_before: float, tracer=None) -> dict:
    """Run one item closed-loop: prepare, time `run`, then collect and check.

    `probe_before` is the probe time measured just before; the probe runs
    again right after the item, outside its timer.  `ms` is the item's wall
    time scaled by PROBE_REF_MS over the mean of the two probe times.
    """
    sf.counting.bell.cache_clear()
    sf.counting.moebius_R.cache_clear()
    if item.prepare is not None:
        item.prepare()
    if tracer is not None:
        tracer.open_item(item.name, item.kind)
    error = answer = None
    start = time.perf_counter()
    try:
        raw = item.run()
    except Exception as exc:  # an item that raises is a failed item, not a crash
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close_item()
    probe_after = probe_ms()
    if error is None:
        try:
            answer = item.collect(raw) if item.collect is not None else raw
            error = item.oracle(answer, item.expected)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return {
        "name": item.name,
        "kind": item.kind,
        "ms": elapsed * 1e3 * PROBE_REF_MS / ((probe_before + probe_after) / 2),
        "wall_ms": elapsed * 1e3,
        "probe_ms": [probe_before, probe_after],
        "error": error,
        "answer": answer,
    }


def run_items(items, sf, tracer=None) -> list[dict]:
    """Each item once, in order; the probe after one item serves the next."""
    samples = []
    probe = probe_ms()
    for item in items:
        samples.append(run_item(item, sf, probe, tracer))
        probe = samples[-1]["probe_ms"][1]
    return samples


def run_window(workload, sf, seconds: float) -> list[dict]:
    """Whole passes until the scaled item time reaches `seconds` and the
    workload's tail percentile has at least ten samples beyond it."""
    samples: list[dict] = []
    while True:
        samples += run_items(workload.items, sf)
        busy = sum(s["ms"] for s in samples) / 1e3
        if busy >= seconds and len(samples) * (1 - workload.tail_pct / 100) >= 10:
            return samples


def git_state() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"sha": "unknown", "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src"))}


def end_to_end(samples, setup_s, tail_pct) -> tuple[dict, dict]:
    ms = [s["ms"] for s in samples]
    ok = sum(1 for s in samples if s["error"] is None)
    tail_ms = sorted(ms)[math.ceil(tail_pct / 100 * len(ms)) - 1]  # nearest rank
    values = {
        "setup_s": setup_s,
        "items_per_s": ok / (sum(ms) / 1e3),
        "item_ms_p50": statistics.median(ms),
        "item_ms_tail": tail_ms,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "tail_percentile": tail_pct,
        "tail_samples_beyond": sum(1 for x in ms if x > tail_ms),
        "samples": len(ms),
        "failed_frac": (len(ms) - ok) / len(ms),
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shiftfold" / "__init__.py").is_file():
        print(f"error: no shiftfold package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = OUT / f"work_{label}_{os.getpid()}"
    try:
        setup_times, setup_wall = [], []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            before = probe_ms()
            start = time.perf_counter()
            sf, cli, formats = fresh_import()
            ctx = workloads.Context(args.seed, workdir, sf, cli, formats)
            workload = workloads.WORKLOADS[args.workload](ctx)
            elapsed = time.perf_counter() - start
            setup_times.append(elapsed * PROBE_REF_MS / ((before + probe_ms()) / 2))
            setup_wall.append(elapsed)
        setup_s = statistics.median(setup_times)

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": sys.version,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "setup_times_s": setup_times,
            "setup_wall_s": setup_wall,
            "pass_items": len(workload.items),
            "excluded_cases": EXCLUDED,
        }
        if args.trace == 0:
            samples = run_window(workload, sf, args.seconds)
            named = run_items(workload.named, sf)
            metrics, detail = end_to_end(samples, setup_s, workload.tail_pct)
            units = dict(END_TO_END)
            record.update(detail, named=named)
            everything = samples + named
            correct = all(s["error"] is None for s in everything)
        else:
            samples = run_items(workload.items, sf)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_items(workload.items, sf, tracer)
            finally:
                tracer.uninstall()
            # the first pass also warms the allocator, so overhead is taken
            # against a second untraced pass run after the traced one
            untraced = run_items(workload.items, sf)
            mismatched = [
                a["name"]
                for a, b, c in zip(samples, traced, untraced)
                if not a["answer"] == b["answer"] == c["answer"]
            ]
            for sample in traced:
                if sample["name"] in mismatched:
                    sample["error"] = sample["error"] or "traced answer differs from untraced"
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_frac"] = (
                sum(s["ms"] for s in traced) / sum(s["ms"] for s in untraced) - 1
            )
            units = dict(tracing.LAYER_METRICS)
            record.update(traced_samples=traced, untraced_samples=untraced, mismatched=mismatched)
            everything = samples + traced + untraced
            correct = not mismatched and all(s["error"] is None for s in everything)
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"SPANS_{label}.jsonl")
        failed = sum(1 for s in everything if s["error"] is not None)
        for sample in everything:
            sample.pop("answer", None)
        record.update(samples=samples, metrics=metrics, git=git_state())
        (OUT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac {failed / len(everything):.6g} fraction")
    for sample in everything:
        if sample["error"] is not None:
            print(f"{args.workload} FAILED {sample['name']}: {sample['error']}")
    result = {
        "correct": correct,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
