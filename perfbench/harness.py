"""One benchmark run of one workload: set-up, timed rounds, correctness
checks, metrics and the human-readable report.

A round runs each part of the workload once through
``rffkrr.experiments.run_experiment``, as ``rffkrr krr`` / ``rffkrr
bench`` would (``trials=1``, ``threads=1``, default protocol).  Every
round repeats the same configuration, so rounds differ only in machine
noise, and accuracy and error are fixed by the seed.  Rounds continue
while the next one is expected to end within the run's time budget.
"""

import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
from rffkrr import cli, datasets, experiments, linalg
from rffkrr.experiments import ExperimentConfig
from rffkrr.features import feature_map, sample_mc
from rffkrr.kernels import KernelSpec, spectral_density
from rffkrr.krr import fit

import checks
from spans import PROBED, TRACED, Recorder, has_ancestor, self_times
from workloads import EEG_DIM, EEG_ROWS, make_data, write_csv

SETUP_REPEATS = 3
# Layers whose self time is summed per traced round; loading is set-up.
LAYERS = tuple(name for name in TRACED if name != "datasets.load_dataset")
RESAMPLED = ("SurrogateRFF", "LeverageRFF")
# Acceptance 6: surrogate generation <= 1.5x RFF, leverage >= 2x surrogate.
ACCEPTANCE_6 = (
    ("gen_surrogate_over_rff", "SurrogateRFF", "RFF", "bound <= 1.5x", lambda r: r <= 1.5),
    ("gen_leverage_over_surrogate", "LeverageRFF", "SurrogateRFF", "bound >= 2x",
     lambda r: r >= 2.0),
)
DATA_NOTE = (
    "synthetic, shaped like the UCI EEG eye-state file: uniform X on [0,1]^d, "
    "labels sign(sin 4x0 + x1^2 - 0.6); not EEG data"
)


@dataclass
class Outcome:
    """One (method, s, trial) record of one round, or its failure."""

    round: int
    method: str
    mode: str
    wall_s: float = math.nan
    record: object = None
    captured: dict = None
    failures: list = field(default_factory=list)
    span_self_s: float = math.nan  # traced rounds: summed self times of its spans


@dataclass
class Round:
    index: int
    wall_s: float
    solves: int
    outcomes: list
    traced: bool


def set_up(workload, csv_path, seed, rows, dim):
    """Generate the data, write it as CSV, load it as a user would, and
    warm up with the widest feature map the workload computes, on as many
    rows as a training half.  Returns the loaded Dataset."""
    X, y = make_data(seed, rows, dim)
    write_csv(csv_path, X, y)
    # Called through the module, so a traced run records the span.
    dataset = datasets.load_dataset(csv_path)
    width = max(part.s_mult * part.pool_mult for part in workload.parts) * dim
    pool = sample_mc(spectral_density(KernelSpec(), dim), width, seed)
    feature_map(dataset.X[: rows // 2], pool)
    return dataset


def run_round(index, workload, dataset, csv_path, seed, recorder, traced):
    outcomes = []
    solves = linalg.solve_count()
    start = time.perf_counter()
    for part in workload.parts:
        mode = cli._MODES[part.command]
        config = ExperimentConfig(
            data=csv_path,
            methods=part.methods,
            s_multipliers=(part.s_mult,),
            pool_multiplier=part.pool_mult,
            trials=1,
            seed=seed,
            threads=1,
        )
        done = len(outcomes)
        last = time.perf_counter()

        def on_record(record):
            # A record's wall time runs from the end of the previous
            # callback, so this bookkeeping is charged to no record.
            nonlocal last
            wall = time.perf_counter() - last
            outcomes.append(
                Outcome(index, record.method, mode, wall, record, recorder.take())
            )
            last = time.perf_counter()

        try:
            experiments.run_experiment(config, dataset=dataset, mode=mode, on_record=on_record)
        except Exception as exc:  # the record failed; count it and go on
            for method in part.methods[len(outcomes) - done:]:
                outcomes.append(Outcome(index, method, mode, failures=[repr(exc)]))
            recorder.take()
    wall = time.perf_counter() - start
    return Round(index, wall, linalg.solve_count() - solves, outcomes, traced)


def run_workload(workload, seed, seconds, tracing, workdir, rows=EEG_ROWS,
                 dim=EEG_DIM, import_s=0.0):
    """Run one workload; returns (report lines, result dict).

    In a traced run the first round is untraced (it gives the reference
    for the tracing overhead) and at least one traced round follows.
    """
    os.makedirs(workdir, exist_ok=True)
    csv_path = os.path.join(workdir, f"{workload.name}-seed{seed}.csv")
    recorder = Recorder(linalg.solve_count)

    setup_times = []
    with recorder.install(TRACED if tracing else ()):
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            dataset = set_up(workload, csv_path, seed, rows, dim)
            setup_times.append(time.perf_counter() - start)

    rounds = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        traced = tracing and bool(rounds)
        recorder.round = len(rounds)
        with recorder.install(TRACED if traced else PROBED):
            rounds.append(
                run_round(len(rounds), workload, dataset, csv_path, seed, recorder, traced)
            )
        elapsed = time.perf_counter() - start
        if peak_rss_mb is None:
            # After one round, as ``rffkrr krr --trials 1`` would peak; later
            # rounds can reach a little higher as the heap fragments.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracing and len(rounds) < 2:
            continue
        if elapsed + max(r.wall_s for r in rounds) > seconds:
            break
    recorder.round = None
    os.remove(csv_path)

    outcomes = [o for r in rounds for o in r.outcomes]
    own = self_times(recorder.spans)
    grid = ExperimentConfig(data=csv_path).lambda_grid
    for outcome in outcomes:
        if outcome.record is not None:
            outcome.failures += _check(outcome, grid, seed)
    if tracing:
        _check_span_sums(recorder.spans, own, rounds)
    failed = sum(1 for o in outcomes if o.failures)

    if tracing:
        metrics = _layer_metrics(recorder.spans, own, rounds, outcomes, grid)
        recorder.write(os.path.join(workdir, f"spans-{workload.name}-seed{seed}.jsonl"))
    else:
        metrics = _end_to_end_metrics(import_s + statistics.median(setup_times),
                                      rounds, outcomes, peak_rss_mb)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    lines = _report(workload, seed, tracing, rounds, outcomes, metrics, failed, grid)
    lines.insert(1, f"setup: import {import_s:.4f} s, repeats "
                    + " ".join(f"{t:.4f}" for t in setup_times) + " s")
    return lines, result


def _check(outcome, grid, seed):
    record = outcome.record
    train, test = outcome.captured["split"]
    results = [
        checks.check_lambda(record.lam, grid),
        checks.check_solve_free(outcome.captured["gen_solves"]),
    ]
    if outcome.mode == "full":
        results.append(checks.check_accuracy(record.accuracy, test.y))
        results.append(checks.check_rel_error(record.rel_error))
    if outcome.round == 0:
        results.append(_oracle(train, outcome.captured["pool"], record.lam, seed))
    return [message for message in results if message]


def _oracle(train, pool, lam, seed):
    # Outside the timed region, on a training subsample the exact oracle
    # accepts.  Every round repeats round 0, so round 0 is checked.
    count = min(checks.ORACLE_ROWS, train.n)
    rows = np.random.default_rng(seed).permutation(train.n)[:count]
    Z = feature_map(train.X[rows], pool).entries
    y = train.y[rows]
    return checks.check_oracle(fit(Z, y, lam).beta, Z, y, lam)


def _check_span_sums(spans, own, rounds):
    sums = {}
    for span, self_s in zip(spans, own):
        if span.record is not None:
            sums[span.record] = sums.get(span.record, 0.0) + self_s
    for r in rounds:
        if not r.traced:
            continue
        for o in r.outcomes:
            if o.record is not None:
                key = (o.round, o.record.method, o.record.s, o.record.trial)
                o.span_self_s = sums.get(key, 0.0)
                message = checks.check_self_times(o.span_self_s, o.wall_s)
                if message:
                    o.failures.append(message)


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _recorded(outcomes, method=None):
    return [o for o in outcomes if o.record is not None and method in (None, o.method)]


def _lambda_edge_frac(outcomes, grid):
    """Share of cross-validated records whose chosen lambda is a grid end."""
    full = [o for o in _recorded(outcomes) if o.mode == "full"]
    edge = [o for o in full if o.record.lam in (min(grid), max(grid))]
    return len(edge) / len(full) if full else 0.0


def _end_to_end_metrics(setup_s, rounds, outcomes, peak_rss_mb):
    surrogate = _recorded(outcomes, "SurrogateRFF")
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (_median([r.wall_s for r in rounds]), "s"),
        "trial_s.SurrogateRFF": (_median([o.wall_s for o in surrogate]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _layer_metrics(spans, own, rounds, outcomes, grid):
    traced = [r for r in rounds if r.traced]
    totals = {r.index: {} for r in traced}

    def add(round_totals, key, value):
        round_totals[key] = round_totals.get(key, 0.0) + value

    for i, span in enumerate(spans):
        if span.round not in totals:
            continue
        round_totals = totals[span.round]
        add(round_totals, span.name, own[i])
        add(round_totals, span.name + ".calls", 1)
        for counter, value in span.count.items():
            add(round_totals, f"{span.name}.{counter}", value)
        if span.name == "experiments.generate_features" and has_ancestor(
            spans, i, "krr.cross_validate"
        ):
            add(round_totals, "krr.cross_validate.sampler_calls", 1)

    def per_round(key):
        return statistics.median(t.get(key, 0.0) for t in totals.values())

    load = [own[i] for i, s in enumerate(spans) if s.name == "datasets.load_dataset"]
    metrics = {"datasets.load_dataset.self_s": (statistics.median(load), "s")}
    for name in LAYERS:
        metrics[name + ".self_s"] = (per_round(name), "s")
    for key, unit in (
        ("features.feature_map.calls", "count"),
        ("features.feature_map.cos_sin_evals", "count"),
        ("features.feature_map.z_mb", "MB"),
        ("krr.cross_validate.sampler_calls", "count"),
    ):
        metrics[key] = (per_round(key), unit)
    metrics["linalg.solves"] = (statistics.median(r.solves for r in traced), "count")
    metrics["krr.lambda_edge_frac"] = (_lambda_edge_frac(outcomes, grid), "1")
    diagnostics = [
        checks.resampling_diagnostics(o.captured["pool"])
        for o in _recorded(outcomes, "SurrogateRFF")
    ]
    for key in ("unique_frac", "max_weight_ratio", "ess_frac"):
        metrics["leverage." + key] = (_median([d[key] for d in diagnostics]), "1")
    untraced = [r.wall_s for r in rounds if not r.traced]
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def environment(seed):
    """Machine, library and data description printed with every run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = " ".join(f"{k}={v}" for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS"))
    return [
        f"env nproc={len(os.sched_getaffinity(0))} cpu={cpu!r}",
        f"env python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas={blas.get('name')} {blas.get('version')}",
        f"env {threads} experiment_threads=1 seed={seed}",
        f"env data: {DATA_NOTE}",
    ]


def _high_percentile(count):
    """Highest reported percentile with at least 10 samples beyond it."""
    eligible = [p for p in (50, 75, 90, 95, 99) if count * (100 - p) / 100 >= 10]
    return max(eligible) if eligible else None


def _timing(values):
    values = sorted(values)
    p = _high_percentile(len(values))
    if p is None:
        tail = f"p-high none ({len(values)} samples, 20 needed)"
    else:
        tail = f"p{p} {np.percentile(values, p):.4f} ({len(values)} samples)"
    return f"median {statistics.median(values):.4f} s, {tail}"


def _ratio_lines(outcomes):
    """Acceptance-6 generation-time ratios wherever both methods ran at one s."""
    gen = {}
    for o in _recorded(outcomes):
        gen.setdefault((o.method, o.record.s), []).append(o.record.gen_time_s)
    lines = []
    for name, method, base, bound, holds in ACCEPTANCE_6:
        for s in sorted({s for m, s in gen if m == method and (base, s) in gen}):
            ratio = statistics.median(gen[method, s]) / statistics.median(gen[base, s])
            lines.append(
                f"ratio.{name} = {ratio:.3f} at s={s} ({bound}: "
                f"{'within' if holds(ratio) else 'NOT MET'}; synthetic data)"
            )
    if lines:
        lines.append("acceptance 6 on the real EEG file: FAIL (dataset missing)")
    return lines


def _report(workload, seed, tracing, rounds, outcomes, metrics, failed, grid):
    lines = [
        f"perfbench workload={workload.name} seed={seed} trace={int(tracing)} "
        f"rounds={len(rounds)} ({sum(r.traced for r in rounds)} traced)",
        f"why: {workload.why}",
        *environment(seed),
    ]
    for o in outcomes:
        r = o.record
        if r is None:
            lines.append(f"record round={o.round} method={o.method} FAILED: {o.failures}")
            continue
        text = (
            f"record round={o.round} method={r.method} s={r.s} trial={r.trial} "
            f"wall_s={o.wall_s:.4f} gen_s={r.gen_time_s:.4f} fit_s={r.solve_time_s:.4f} "
            f"accuracy={r.accuracy:.6f} rel_error={r.rel_error:.6f} lambda={r.lam:g} "
            f"gen_solves={sum(c for _, c in o.captured['gen_solves'])}"
        )
        if not math.isnan(o.span_self_s):
            text += f" span_self_sum_s={o.span_self_s:.4f}"
        if r.method in RESAMPLED:
            diag = checks.resampling_diagnostics(o.captured["pool"])
            text += "".join(f" {k}={v:.4f}" for k, v in diag.items())
        if o.failures:
            text += f" FAILED: {o.failures}"
        lines.append(text)
    for method in dict.fromkeys(workload.methods):
        done = _recorded(outcomes, method)
        if not done:
            continue
        accuracy = [o.record.accuracy for o in done]
        rel_error = [o.record.rel_error for o in done]
        lines.append(
            f"trial_s.{method}: {_timing([o.wall_s for o in done])}; "
            f"gen_s.{method}: {_timing([o.record.gen_time_s for o in done])}"
        )
        lines.append(
            f"accuracy.{method} = {np.mean(accuracy):.6f} (fraction); "
            f"rel_error.{method} = {np.mean(rel_error):.6f} (relative) "
            f"(nan where the mode has no such stage)"
        )
    lines += _ratio_lines(outcomes)
    lines.append(f"lambda grid {grid}; krr.lambda_edge_frac = "
                 f"{_lambda_edge_frac(outcomes, grid):.4f} (chosen at a grid end)")
    lines.append(f"failed_frac = {failed}/{len(outcomes)} = {failed / len(outcomes):.4f}")
    if tracing:
        lines.append(f"trace overhead: traced round_s minus untraced round_s = "
                     f"{metrics['trace.overhead_s'][0]:.4f} s")
    lines += [f"metric {name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    return lines
