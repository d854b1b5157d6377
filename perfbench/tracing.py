"""In-process tracing of the pipeline's layer calls, from outside the program.

``Tracer.wrap`` replaces a module attribute with a timing wrapper, so the
calls ``mortdecomp.cli`` makes into each layer record a span (name, start,
end, process CPU at both ends, thread and parent span) without any change to
the program.  ``Tracer.count_calls`` adds a function's result sizes to a
counter on the calling thread's innermost open span; on the module-level
``ndtr`` names it counts normal CDF evaluations where the work happens.
Spans stay in memory until the run ends.  ``layer_metrics`` turns them into
the per-layer figures.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    attrs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "thread": self.thread,
            "start_s": self.start - origin, "duration_s": self.duration,
            "cpu_s": self.cpu_end - self.cpu_start, **self.attrs, **self.counts,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attr: str, name: str, measure=None, keep: bool = False) -> None:
        """Time every call through ``module.attr`` as a span called ``name``.

        ``measure(args, kwargs, result)`` returns attributes for the span,
        such as the rows or draws it processed; ``keep`` holds the result.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            span = Span(span_id, name, stack[-1].id if stack else None, threading.get_ident(),
                        time.perf_counter(), time.process_time())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end, span.cpu_end = time.perf_counter(), time.process_time()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if measure is not None:
                span.attrs.update(measure(args, kwargs, result))
            if keep:
                span.result = result
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def count_calls(self, module, attr: str, counter: str) -> None:
        """Add the element count of every result of ``module.attr`` to ``counter``."""
        fn = getattr(module, attr)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                span = stack[-1]
                span.counts[counter] = span.counts.get(counter, 0) + int(np.size(result))
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, counted)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


REPORT_WRITERS = ("summary_to_dict", "write_decomposition_json", "write_all_tables", "write_variance_profile")


def synthesized_rows(args, kwargs, result) -> dict:
    """Span attributes of a ``synthesize`` call: births generated."""
    return {"rows": sum(s.n_births for s in result)}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point that ``mortdecomp.cli`` imported."""
    from mortdecomp import cli, decompose, marginal, sampler, validation

    tracer.wrap(cli, "synthesize", "simulate.synthesize", synthesized_rows)
    tracer.wrap(cli, "ingest_csv", "dataset.ingest_csv",
                lambda a, k, r: {"rows": r.n_births + r.dropped_rows})
    tracer.wrap(cli, "compute_centering", "dataset.compute_centering", lambda a, k, r: {"rows": a[0].n_births})
    tracer.wrap(cli, "pool_samples", "dataset.pool_samples", lambda a, k, r: {"rows": sum(s.n_births for s in a)})
    tracer.wrap(cli, "build_design", "dataset.build_design", lambda a, k, r: {"rows": r.n_rows}, keep=True)
    tracer.wrap(cli, "fit", "sampler.fit",
                lambda a, k, r: {"sweeps": a[2].total, "survey": a[0].survey_id}, keep=True)
    tracer.wrap(cli, "diagnostics", "sampler.diagnostics")
    # fit's own quality warning calls diagnostics through the sampler module
    tracer.wrap(sampler, "diagnostics", "sampler.diagnostics")
    tracer.wrap(cli, "save_draws", "sampler.save_draws")
    tracer.wrap(cli, "load_draws", "sampler.load_draws")
    tracer.wrap(cli, "mean_mortality", "marginal.mean_mortality", lambda a, k, r: {"draws": a[1].n_draws})
    tracer.wrap(cli, "posterior_decompose", "decompose.posterior_decompose", lambda a, k, r: {"draws": a[2].n_draws})
    tracer.wrap(cli, "variance_collapse", "validation.variance_collapse", lambda a, k, r: {"draws": a[1].n_draws})
    for writer in REPORT_WRITERS:
        tracer.wrap(cli, writer, f"report.{writer}")
    for module in (decompose, validation, marginal):
        tracer.count_calls(module, "ndtr", "ndtr")


def tn_draw_us_per_sweep(design, beta_mean: np.ndarray, seed: int, budget_s: float = 0.5) -> float:
    """Median time of one sweep's latent draw on ``design``, in microseconds.

    One sweep draws every latent normal with the public
    ``sample_truncated_normal``, split by outcome and scattered back as
    ``fit`` does, at eta = x . beta_mean.
    """
    from mortdecomp import sample_truncated_normal

    eta = design.x @ beta_mean
    idx1 = design.outcome == 1
    idx0 = ~idx1
    eta1, eta0 = eta[idx1], eta[idx0]
    z = np.empty(eta.size)
    rng = np.random.default_rng(seed)
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < 20 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        z[idx1] = sample_truncated_normal(eta1, 1.0, "left_of_zero", rng)
        z[idx0] = sample_truncated_normal(eta0, 1.0, "right_of_zero", rng)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def _subtree_count(spans: list[Span], roots: list[Span], counter: str) -> int:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    total, todo = 0, list(roots)
    while todo:
        s = todo.pop()
        total += s.counts.get(counter, 0)
        todo.extend(children.get(s.id, []))
    return total


def _top_level(tracer: Tracer, window: tuple[float, float]) -> list[tuple[str, float, float]]:
    lo, hi = window
    return [(s.name, max(s.start, lo), min(s.end, hi))
            for s in tracer.spans if s.parent is None and s.end > lo and s.start < hi]


def layer_shares(tracer: Tracer, window: tuple[float, float]) -> dict[str, float]:
    """Share of the traced run's wall time each layer (module) was busy.

    Overlapping calls on the two fit threads count once; ``cli`` is the
    time outside every traced call.
    """
    lo, hi = window
    top = _top_level(tracer, window)
    shares = {}
    for layer in sorted({name.split(".")[0] for name, _, _ in top}):
        busy = _union_length((a, b) for name, a, b in top if name.split(".")[0] == layer)
        shares[layer] = busy / (hi - lo)
    shares["cli"] = 1.0 - _union_length((a, b) for _, a, b in top) / (hi - lo)
    return shares


PER_LAYER_UNITS = {
    "dataset.ingest_csv.us_per_row": "us/row",
    "dataset.pool_samples.us_per_row": "us/row",
    "dataset.build_design.us_per_row": "us/row",
    "simulate.synthesize.us_per_row": "us/row",
    "sampler.fit.s": "s",
    "sampler.fit.us_per_sweep": "us/sweep",
    "sampler.sweeps": "count",
    "sampler.extensions": "count",
    "sampler.min_ess": "draws",
    "sampler.min_ess_per_fit_s": "draws/s",
    "sampler.tn_draw.us_per_sweep": "us/sweep",
    "sampler.diagnostics.ms": "ms",
    "sampler.draws_io.ms": "ms",
    "marginal.mean_mortality.ms": "ms",
    "decompose.posterior_decompose.us_per_draw": "us/draw",
    "decompose.ndtr_evals_per_draw": "evals/draw",
    "validation.variance_collapse.us_per_draw": "us/draw",
    "validation.ndtr_evals_per_draw": "evals/draw",
    "report.emit.ms": "ms",
    "cli.fit_stage.wall_s": "s",
    "cli.fit_stage.cores_busy": "cores",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, main_window: tuple[float, float], untraced_wall: float,
                  min_ess: float, tn_us: float) -> dict[str, float]:
    """Per-layer figures from the spans of one traced pipeline run.

    A layer the workload never calls reports 0.  ``main_window`` is the
    traced ``cli.main`` call; spans outside it (set-up) count only toward
    their own layer.
    """
    def busy(name):
        return sum(s.duration for s in tracer.named(name))

    def per(name, key, scale):
        work = sum(s.attrs[key] for s in tracer.named(name))
        return scale * busy(name) / work if work else 0.0

    def busy_ms(*names):
        return 1e3 * sum(busy(n) for n in names)

    def ndtr_per_draw(name):
        roots = tracer.named(name)
        draws = sum(s.attrs["draws"] for s in roots)
        return _subtree_count(tracer.spans, roots, "ndtr") / draws if draws else 0.0

    fits = tracer.named("sampler.fit")
    fit_s = busy("sampler.fit")
    if fits:
        stage_wall = max(s.end for s in fits) - min(s.start for s in fits)
        stage_cpu = max(s.cpu_end for s in fits) - min(s.cpu_start for s in fits)
    else:
        stage_wall = stage_cpu = 0.0
    lo, hi = main_window
    values = {
        "dataset.ingest_csv.us_per_row": per("dataset.ingest_csv", "rows", 1e6),
        "dataset.pool_samples.us_per_row": per("dataset.pool_samples", "rows", 1e6),
        "dataset.build_design.us_per_row": per("dataset.build_design", "rows", 1e6),
        "simulate.synthesize.us_per_row": per("simulate.synthesize", "rows", 1e6),
        "sampler.fit.s": fit_s,
        "sampler.fit.us_per_sweep": per("sampler.fit", "sweeps", 1e6),
        "sampler.sweeps": float(sum(s.attrs["sweeps"] for s in fits)),
        "sampler.extensions": float(len(fits) - len({s.attrs["survey"] for s in fits})),
        "sampler.min_ess": min_ess,
        "sampler.min_ess_per_fit_s": min_ess / fit_s if fit_s else 0.0,
        "sampler.tn_draw.us_per_sweep": tn_us,
        "sampler.diagnostics.ms": busy_ms("sampler.diagnostics"),
        "sampler.draws_io.ms": busy_ms("sampler.save_draws", "sampler.load_draws"),
        "marginal.mean_mortality.ms": busy_ms("marginal.mean_mortality"),
        "decompose.posterior_decompose.us_per_draw": per("decompose.posterior_decompose", "draws", 1e6),
        "decompose.ndtr_evals_per_draw": ndtr_per_draw("decompose.posterior_decompose"),
        "validation.variance_collapse.us_per_draw": per("validation.variance_collapse", "draws", 1e6),
        "validation.ndtr_evals_per_draw": ndtr_per_draw("validation.variance_collapse"),
        "report.emit.ms": busy_ms(*(f"report.{w}" for w in REPORT_WRITERS)),
        "cli.fit_stage.wall_s": stage_wall,
        "cli.fit_stage.cores_busy": stage_cpu / stage_wall if stage_wall else 0.0,
        "cli.self_s": (hi - lo) - _union_length((a, b) for _, a, b in _top_level(tracer, main_window)),
        "trace.overhead_s": (hi - lo) - untraced_wall,
    }
    return values
