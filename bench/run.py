"""grinblat benchmark: one workload per run, outputs checked, metrics as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports the package from ``src/`` of the checkout, builds its
inputs from ``--seed``, and repeats short timed units of the workload for
about ``--seconds`` seconds (at least MIN_UNITS of them), one after another
in this one process.  Every output is checked.  A human-readable report
comes first: each timed step's median and sample count, the failure share
and the throughput.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units are those of ``BENCHMARK.json``, its ``end_to_end``
metrics with ``--trace 0`` and its ``per_layer`` metrics with
``--trace 1``.

Times are reported at a reference speed (see ``reference.py``): each timed
step is bracketed by a fixed pure-Python loop and scaled by how fast that
loop ran, because on a shared host the same code runs up to 1.7 times
slower or faster from one second and one minute to the next.  The report
also prints the raw medians and minima.

End-to-end metrics (tracing off), medians over the run's units:

- ``setup_s``: ``import grinblat`` in a fresh interpreter (median of
  IMPORT_SAMPLES) plus building one unit's untimed inputs.
- ``call_p50_s``: the workload's main call: ``extend_matching``
  (deep-planted), ``solve`` (uniform-pipeline), ``exact_solve`` to the
  lower-bound ``proven-none`` verdict (oracle), ``run_experiment`` (sweep).
- ``unit_p50_s``: all timed steps of a unit: solve, matching round trip and
  verification (deep-planted); gen, write, parse, validate, solve, matching
  round trip and verification (uniform-pipeline); the three oracle calls
  with known verdicts (oracle); the ``run_experiment`` call (sweep).
- ``peak_rss_mb``: peak resident memory of the process.

Operations that raise, ``RecursionError`` included, are counted in
``failed`` and the run goes on.

The package uses numpy only for its random generator, so the run pins
numpy's BLAS library to one thread, in this process and in the import
samples.  Otherwise OpenBLAS starts helper threads at import, and the
import's wall time then depends on whether another core of the host is
free: on a 2-CPU host it read 0.05 s or 0.08 s for minutes at a time.

Per-layer metrics (``--trace 1``): every second unit runs with spans (see
``tracing.py``) and Telemetry on; the units between run as with
``--trace 0``, so ``trace.overhead.*`` is the traced minus the untraced
median of the same run.  All values are medians over units, span-derived
ones over the traced units, with span times scaled like the step they ran
in.  Layers a workload does not exercise read 0.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

MIN_UNITS = 2  # a traced run needs one traced and one untraced unit
MAX_LOOP_S = 150.0  # stop starting units here, whatever --seconds says
IMPORT_SAMPLES = 11


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def import_seconds() -> list[float]:
    """Time ``import grinblat`` in fresh interpreters, at reference speed."""
    # the loop runs a few times first, so the fresh interpreter has warmed it
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import reference; "
        "[reference.reference_loop() for _ in range(3)]; "
        "print(reference.Clock().time(__import__, 'grinblat')[2])"
    )
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_units(wl, seed: int, seconds: float, trace: bool):
    from tracing import Recorder
    from workloads import Unit

    units, build_s = [], []
    start = time.perf_counter()
    index = 0
    while index < MIN_UNITS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        traced = trace and index % 2 == 1
        rec = Recorder() if traced else None
        try:
            wl.timer.reset()
            inputs, _, secs = wl.timer.time(wl.prepare, seed, index)
            build_s.append(secs)
            if rec is not None:
                rec.install()
            unit = wl.run(inputs, traced)
        except Exception as exc:
            # a failure outside the operations a workload guards itself
            unit = Unit(wl.timer, attempted=1)
            unit.fail("unit", exc)
        finally:
            if rec is not None:
                rec.uninstall()
        units.append((traced, unit, rec))
        inputs = None
        gc.collect()
        index += 1
    return units, build_s


def step_times(units, raw: bool = False) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for u in units:
        for name, secs in (u.raw_steps if raw else u.steps).items():
            out.setdefault(name, []).append(secs)
    return out


def end_to_end(wl, plain, build_s, imports) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count), from the untraced units."""
    done = [u for u in plain if wl.main_step in u.steps]
    return {
        "setup_s": (_median(imports) + _median(build_s), len(build_s)),
        "call_p50_s": (_median([u.steps[wl.main_step] for u in done]), len(done)),
        "unit_p50_s": (_median([sum(u.steps.values()) for u in done]), len(done)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def per_layer(wl, units, build_s) -> dict[str, tuple[float, int]]:
    from tracing import PHASES
    from workloads import TELEMETRY_PHASES, WIN_BRANCHES

    traced = [(u, rec) for t, u, rec in units if t]
    plain = [u for t, u, _ in units if not t]
    out: dict[str, tuple[float, int]] = {}

    for name, vals in step_times(plain).items():
        out[name] = (_median(vals), len(vals))
    for key in sorted(set().union(*(u.layers for _, u, _ in units))):
        vals = [u.layers[key] for _, u, _ in units if key in u.layers]
        out[key] = (_median(vals), len(vals))
    if wl.setup_layer:
        out[wl.setup_layer] = (_median(build_s), len(build_s))

    # spans run inside the main step; scale them as that step was scaled
    done = [(u, rec) for u, rec in traced if wl.main_step in u.steps]
    scale = [u.steps[wl.main_step] / u.raw_steps[wl.main_step] for u, _ in done]
    totals = [rec.totals() for _, rec in done]
    for phase in PHASES:
        self_s = [t[phase].self_s * k if phase in t else 0.0 for t, k in zip(totals, scale)]
        calls = [t[phase].calls if phase in t else 0 for t in totals]
        out[f"construct.{phase}.self_s"] = (_median(self_s), len(self_s))
        out[f"construct.{phase}.calls"] = (_median(calls), len(calls))
    for label in ("gen.planted", "gen.uniform"):
        if f"{label}_s" not in out and any(label in t for t in totals):
            vals = [t[label].total_s * k if label in t else 0.0 for t, k in zip(totals, scale)]
            out[f"{label}_s"] = (_median(vals), len(vals))

    phase_counts, win_counts = [], []
    for u, _ in traced:
        events = [e for tel in u.telemetry for e in tel.events]
        phase_counts.append({p: sum(1 for e in events if e["phase"] == p) for p in TELEMETRY_PHASES})
        win_counts.append({w: sum(1 for e in events if e.get("win") == w) for w in WIN_BRANCHES})
    for p in TELEMETRY_PHASES:
        out[f"construct.phase.{p}.count"] = (_median([c[p] for c in phase_counts]), len(phase_counts))
    for w in WIN_BRANCHES:
        out[f"construct.win.{w}.count"] = (_median([c[w] for c in win_counts]), len(win_counts))

    on = end_to_end(wl, [u for u, _ in traced], [], [])
    off = end_to_end(wl, plain, [], [])
    for metric in ("call_p50_s", "unit_p50_s"):
        out[f"trace.overhead.{metric}"] = (
            on[metric][0] - off[metric][0], min(on[metric][1], off[metric][1])
        )
    out["trace.expected_path_frac"] = (
        sum(u.expected_path for u, _ in traced) / len(traced) if traced else 0.0,
        len(traced),
    )
    absent = sorted({a for _, rec in traced for a in rec.absent})
    out["trace.absent"] = (len(absent), len(traced))
    out["trace.spans"] = (_median([len(rec.spans) for _, rec in traced]), len(traced))
    for name in absent:
        print(f"trace: absent {name}")
    return out


def report(wl, units) -> None:
    """Print every timed step's median at reference speed and as measured,
    the failure share and the throughput, from the untraced units."""
    plain = [u for t, u, _ in units if not t]
    steps, raw = step_times(plain), step_times(plain, raw=True)
    print(f"  {'step':<32} {'p50_s':>10} {'raw_p50_s':>10} {'raw_min_s':>10}  n")
    for name, vals in steps.items():
        print(f"  {name:<32} {_median(vals):>10.5f} {_median(raw[name]):>10.5f} "
              f"{min(raw[name]):>10.5f}  {len(vals)}")
    attempted = sum(u.attempted for _, u, _ in units)
    failed = sum(u.failed for _, u, _ in units)
    print(f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted} operations)")
    timed = sum(sum(u.steps.values()) for u in plain)
    verified = sum(u.verified for u in plain)
    if timed:
        print(f"  {wl.throughput} {verified / timed:.4g} "
              f"({verified} verified in {timed:.3f} s of timed steps)")


def _digest_line(wl, seed: int, units) -> str:
    first = next((u for t, u, _ in units if not t and u.output), None)
    if first is None:
        return "output sha256: none (no untraced unit produced output)"
    digest = hashlib.sha256(first.output).hexdigest()
    baseline = json.loads((BENCH / "baseline.json").read_text())
    known = baseline.get("digests", {}).get(wl.name, {}).get(str(seed))
    if known is None:
        verdict = "no baseline for this seed"
    elif known == digest:
        verdict = "matches baseline"
    else:
        verdict = "DIFFERS from baseline"
    return f"output sha256 (unit 0): {digest} ({verdict})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "grinblat" / "__init__.py").is_file():
        print(f"error: no grinblat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from reference import Clock
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](Clock())

    imports = import_seconds()
    units, build_s = run_units(wl, args.seed, args.seconds, bool(args.trace))
    if not any(u.verified for _, u, _ in units):
        print(f"error: no unit of {wl.name} produced a checked result", file=sys.stderr)
        for _, u, _ in units:
            print(f"  {u.failures} {u.wrong}", file=sys.stderr)
        return 1

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: (0.0, 0) for m in wanted}
        values.update(per_layer(wl, units, build_s))
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(wl, [u for t, u, _ in units if not t], build_s, imports)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted = sum(u.attempted for _, u, _ in units)
    failed = sum(u.failed for _, u, _ in units)
    wrong = [w for _, u, _ in units for w in u.wrong]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(units)} units, {attempted} operations, {failed} failed")
    for what, count in sorted(Counter(f for _, u, _ in units for f in u.failures).items()):
        print(f"  failed {what} x{count}")
    for w in wrong:
        print(f"  WRONG: {w}")
    report(wl, units)
    aliases = {} if args.trace else wl.aliases
    for m in wanted:
        value, n = values[m["name"]]
        label = m["name"] + (f" ({aliases[m['name']]})" if m["name"] in aliases else "")
        print(f"  {label:<44} {value:>14.6g} {m['unit']:<7} n={n}")
    print(_digest_line(wl, args.seed, units))

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
