"""The benchmark's workloads.

Each workload builds the untimed inputs of one timed unit from the run's
seed and the unit's index (``prepare``), then runs and checks the unit
(``run``).  Every unit gets freshly built inputs: ``Partition`` caches its
kernel and class index on first use, so reusing instance objects would
time warm caches that a user never gets.

Timed steps are kept short (about 0.3 s or less) so that the reference
loop run around each step sees the same host speed as the step (see
``reference.py``).

Package functions are looked up through their modules at call time
(``pipeline.extend_matching``, not a name imported here), so the traced
run's wrappers see the calls.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from grinblat import core, experiment, formats, gen, oracle
from grinblat.construct import pipeline
from grinblat.construct.state import Telemetry
from reference import Clock

# Every event name and win branch Telemetry can carry; one count each.
TELEMETRY_PHASES = (
    "direct_pair",
    "exact_fallback",
    "build_track",
    "charge_scheme_2",
    "heavy_win",
    "five_heavy_left",
    "charge_scheme_3",
    "lucky",
    "final_win",
    "exact_dispatch",
    "solved",
)
WIN_BRANCHES = (
    "direct_pair",
    "track_pair",
    "t_pair",
    "late_direct_pair",
    "fresh_pair",
    "untainted_left",
    "case1",
    "case2a",
    "case2b",
    "outside_left",
    "same_left",
    "split_left",
)


def unit_seed(seed: int, index: int) -> int:
    """Distinct generator seed for each unit of a run."""
    return seed * 1_000_003 + index


@dataclass
class Unit:
    """What one timed unit measured and whether its outputs checked out."""

    timer: Clock
    steps: dict[str, float] = field(default_factory=dict)  # at reference speed
    raw_steps: dict[str, float] = field(default_factory=dict)  # as measured
    layers: dict[str, float] = field(default_factory=dict)  # counts and rates
    attempted: int = 0
    failed: int = 0
    verified: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    output: bytes = b""  # canonical output, for the digest
    telemetry: list[Telemetry] = field(default_factory=list)
    expected_path: bool = True

    def clock(self, step: str, fn, *args, **kwargs) -> Any:
        out, self.raw_steps[step], self.steps[step] = self.timer.time(fn, *args, **kwargs)
        return out

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {type(exc).__name__}")


def _roundtrip(m: core.Matching) -> tuple[bytes, core.Matching]:
    data = formats.write_matching(m)
    return data, formats.parse_matching(data)


class Workload:
    """Shared state: the clock every timed step of the run goes through.

    Each workload also names its ``main_step``, the ``setup_layer`` its
    input building measures (if any), the ``aliases`` the report shows for
    the end-to-end metrics on it, and its ``throughput`` unit.
    """

    def __init__(self, timer: Clock):
        self.timer = timer


class DeepPlanted(Workload):
    """gen_planted_concentrated(100, 32) in set-up, then one extension step
    that runs every phase down to final_win."""

    name = "deep-planted"
    N, C = 100, 32
    main_step = "extend_matching"
    setup_layer = "gen.planted_s"
    aliases = {"call_p50_s": "solve_p50_s"}
    throughput = "instances_per_s"

    def prepare(self, seed: int, index: int):
        return gen.gen_planted_concentrated(self.N, self.C, unit_seed(seed, index))

    def run(self, inputs, traced: bool) -> Unit:
        inst, sub = inputs
        u = Unit(self.timer, attempted=1)
        tel = Telemetry() if traced else None
        try:
            m = u.clock(self.main_step, pipeline.extend_matching,
                        inst, sub, new_rel=0, c=self.C, telemetry=tel)
            data, back = u.clock("formats.matching_roundtrip_s", _roundtrip, m)
            report = u.clock("core.verify_s", core.verify_matching, inst, back)
        except Exception as exc:
            u.fail("extend_matching", exc)
            return u
        u.output = data
        if back != m or not report.valid:
            u.wrong.append(f"deep-planted matching invalid: {report}")
        else:
            u.verified = 1
        if tel is not None:
            u.telemetry.append(tel)
            u.expected_path = {"charge_scheme_3", "final_win"} <= set(tel.phases())
        return u


class UniformPipeline(Workload):
    """The CLI's ``gen random 30 --c 5000 | solve | verify`` chain, run
    in-process so interpreter start-up does not blur it."""

    name = "uniform-pipeline"
    N, C = 30, 5000
    main_step = "solve"
    setup_layer = None
    aliases = {"call_p50_s": "solve_p50_s", "unit_p50_s": "pipeline_p50_s"}
    throughput = "instances_per_s"

    def prepare(self, seed: int, index: int):
        return unit_seed(seed, index)

    def run(self, useed: int, traced: bool) -> Unit:
        u = Unit(self.timer, attempted=1)
        tel = Telemetry() if traced else None
        try:
            inst = u.clock("gen.uniform_s", gen.gen_random_hypothesis, self.N, self.C, useed)
            data = u.clock("formats.write_instance_s", formats.write_instance, inst)
            parsed = u.clock("formats.parse_instance_s", formats.parse_instance, data)
            u.layers["formats.instance_bytes"] = len(data)
            if parsed != inst:
                u.wrong.append("parse_instance(write_instance(x)) != x")
            u.clock("core.validate_s", parsed.validate)
            res = u.clock(self.main_step, pipeline.solve, parsed, c=self.C, telemetry=tel)
            mdata, back = u.clock("formats.matching_roundtrip_s", _roundtrip, res.matching)
            report = u.clock("core.verify_s", core.verify_matching, parsed, back)
        except Exception as exc:
            u.fail("pipeline", exc)
            return u
        u.output = mdata
        if res.outcome != "matched" or back != res.matching or not report.valid:
            u.wrong.append(f"uniform-pipeline: outcome {res.outcome}, {report}")
        else:
            u.verified = 1
        if tel is not None:
            u.telemetry.append(tel)
            wins = [e["win"] for e in tel.events if "win" in e]
            u.expected_path = wins == ["direct_pair"] * (self.N - 1) and not (
                set(tel.phases()) - {"direct_pair", "solved"}
            )
        return u


def _relabel(inst: core.Instance, rng: random.Random) -> core.Instance:
    perm = list(range(inst.ground_size))
    rng.shuffle(perm)
    return core.Instance(
        inst.ground_size,
        [core.Partition([[perm[x] for x in cl] for cl in p.classes]) for p in inst.relations],
    )


class Oracle(Workload):
    """The exact solver and the witness search on instances whose verdicts
    are known.  The traced run also probes, once, one large instance the
    solver cannot handle yet (see ``run``)."""

    name = "oracle"
    LB_N = 6
    LARGE_PAIRS = 1500
    SEARCH = (3, 8, 12)
    SEARCH_BUDGET = 2_000_000
    main_step = "exact_lower_bound"
    setup_layer = None
    aliases = {"call_p50_s": "exact_verdict_s"}
    throughput = "verdicts_per_s"

    def prepare(self, seed: int, index: int):
        lb = _relabel(gen.gen_lower_bound_family(self.LB_N), random.Random(unit_seed(seed, index)))
        g = lb.ground_size
        # one extra disjoint pair per relation makes the instance matchable
        padded = core.Instance(
            g + 2 * lb.n,
            [core.Partition(list(p.classes) + [(g + 2 * i, g + 2 * i + 1)])
             for i, p in enumerate(lb.relations)],
        )
        large = None
        if index == 1:  # the first traced unit of a traced run
            large = core.Instance(
                2 * self.LARGE_PAIRS,
                [core.Partition([(2 * i, 2 * i + 1)]) for i in range(self.LARGE_PAIRS)],
            )
        return lb, padded, large

    def run(self, inputs, traced: bool) -> Unit:
        lb, padded, large = inputs
        u = Unit(self.timer, attempted=3)
        try:
            res = u.clock(self.main_step, oracle.exact_solve, lb)
            u.layers["oracle.exact.nodes"] = res.nodes
            u.layers["oracle.exact.nodes_per_s"] = res.nodes / u.steps[self.main_step]
            if res.outcome == "proven-none":
                u.verified += 1
            else:
                u.wrong.append(f"lower-bound family: {res.outcome}, expected proven-none")
        except Exception as exc:
            u.fail("exact_lower_bound", exc)

        try:
            res = u.clock("exact_padded", oracle.exact_solve, padded)
            if res.outcome == "matched" and core.verify_matching(padded, res.matching).valid:
                u.verified += 1
                u.output = formats.write_matching(res.matching)
            else:
                u.wrong.append(f"padded lower-bound family: {res.outcome}, expected matched")
        except Exception as exc:
            u.fail("exact_padded", exc)

        try:
            res = u.clock("search_witness", oracle.search_unmatchable, *self.SEARCH, budget=self.SEARCH_BUDGET)
            u.layers["oracle.search.nodes"] = res.nodes
            u.layers["oracle.search.nodes_per_s"] = res.nodes / u.steps["search_witness"]
            w = res.witness
            if (
                w is not None
                and core.min_kernel(w) == self.SEARCH[1]
                and oracle.exact_solve(w).outcome == "proven-none"
            ):
                u.verified += 1
            else:
                u.wrong.append("search_unmatchable(3, 8, 12): no certified witness")
        except Exception as exc:
            u.fail("search", exc)
        # the three calls with known verdicts all reached them
        u.expected_path = u.verified == 3

        if large is not None and traced:
            # Known failure: the recursive search raises RecursionError on
            # this trivially matchable instance.  The probe is untimed and
            # reported only as the layer metric oracle.exact_large.failed
            # (1 while the failure stands); it is not one of the workload's
            # operations, so the run's attempted and failed leave it out.
            try:
                res = oracle.exact_solve(large)
                u.layers["oracle.exact_large.failed"] = 0
                if not (res.outcome == "matched" and core.verify_matching(large, res.matching).valid):
                    u.wrong.append(f"{self.LARGE_PAIRS} disjoint pairs: {res.outcome}")
            except Exception as exc:
                u.layers["oracle.exact_large.failed"] = 1
                print(f"  probe exact_large: {type(exc).__name__} (known failure, not counted)")
        return u


class Sweep(Workload):
    """run_experiment on a fixed config of small trials; the only workload
    that runs the experiment layer and its thread pool."""

    name = "sweep"
    CONFIG = {"ns": [30], "cs": [8, 32], "generators": ["uniform", "planted"], "trials": 2}
    main_step = "experiment.run_s"
    setup_layer = None
    aliases = {"call_p50_s": "run_experiment_s", "unit_p50_s": "run_experiment_s"}
    throughput = "trials_per_s"

    def __init__(self, timer: Clock):
        super().__init__(timer)
        # pinned to at most the usable cores; the package default of
        # min(8, cpu_count) can exceed them on a shared machine
        self.threads = min(2, len(os.sched_getaffinity(0)))
        os.environ["GRINBLAT_THREADS"] = str(self.threads)
        self.first_csv: Optional[list[str]] = None

    def prepare(self, seed: int, index: int):
        # Every unit of a run repeats one config: run_experiment builds fresh
        # instances each call, and repeating it checks that the report is
        # byte-identical across runs of one seed.
        return seed

    def run(self, seed: int, traced: bool) -> Unit:
        cfg_text = json.dumps({**self.CONFIG, "master_seed": seed, "measure_time": traced})
        cfg = experiment.ExperimentConfig.from_json(cfg_text)
        trials = len(cfg.ns) * len(cfg.cs) * len(cfg.generators) * cfg.trials
        u = Unit(self.timer, attempted=trials)
        tels: list[Telemetry] = []
        if traced:
            real = experiment.Telemetry

            def capture() -> Telemetry:
                tel = real()
                tels.append(tel)
                return tel

            experiment.Telemetry = capture
        try:
            csv = u.clock(self.main_step, experiment.run_experiment, cfg)
        except Exception as exc:
            u.fail("run_experiment", exc)
            u.failed = trials
            return u
        finally:
            if traced:
                experiment.Telemetry = real
        u.layers["experiment.threads"] = self.threads
        u.telemetry = tels
        rows = [ln.split(",") for ln in csv.splitlines()[1:] if not ln.startswith("#")]
        if traced:
            scale = u.steps[self.main_step] / u.raw_steps[self.main_step]
            u.layers["experiment.trial_wall_sum_s"] = sum(int(r[6]) for r in rows) / 1e9 * scale
        # wall_nanos is written only when measure_time is on; blank it so
        # traced and untraced reports compare
        stable = [
            ln if ln.startswith("#") or i == 0 else ",".join(r[:6] + ["0"] + r[7:])
            for i, (ln, r) in enumerate((ln, ln.split(",")) for ln in csv.splitlines())
        ]
        if self.first_csv is None:
            self.first_csv = stable
        elif stable != self.first_csv:
            u.wrong.append("sweep report differs between runs of one config")
        matched = sum(1 for r in rows if r[4] == "matched")
        if len(rows) != trials or matched != trials:
            u.wrong.append(f"sweep: {matched}/{len(rows)} rows matched, {trials} expected")
        u.verified = matched
        u.failed += trials - matched
        u.output = csv.encode() if not traced else b""
        # planted c=8 instances are built to end in a t-charging win
        u.expected_path = sum(1 for r in rows if r[5] == "charge_scheme_2") == cfg.trials
        return u


WORKLOADS = {w.name: w for w in (DeepPlanted, UniformPipeline, Oracle, Sweep)}
