"""The traced pass: the CLI's steps driven through each module's public API.

Every call into a layer runs inside a span (name, start, end, parent span,
round, fold).  Spans stay in memory and are written out when the pass ends.  The
``train``, ``predict`` and ``evaluate`` step spans do what the matching CLI
command does, in the untraced pass's order and number, so their total
against the untraced pass is the tracing overhead.  A ``probe`` span per fold then times the layers those steps do
not call on their own: match vectors, the train x train and test x train
Gram, the latent and quadrature halves of a prediction, Elo predictions,
and the evidence or the search where the workload's train step has none.
Peak allocations are measured last, in a pass of their own under
``tracemalloc``, so that they do not distort the timings.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from lineupgp.baselines import EloModel, UniformModel
from lineupgp.data import parse_dataset
from lineupgp.evaluation import evaluate, format_summary_table, write_per_match_csv
from lineupgp.gp import (
    GPModel,
    Hyperparams,
    fit,
    load_model,
    log_marginal,
    optimize_hyperparams,
    quadrature_outcome_probs,
    save_model,
    train_model,
)
from lineupgp.kernel import build_match_vector, kernel_matrix
from lineupgp.simulate import SimConfig, simulate_dataset

STEPS = ("train", "predict", "evaluate")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    round: int
    fold: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = 0
        self.fold: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.round, self.fold))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def durations(
        self, name: str, parents: tuple[str, ...] = (), round_: int | None = None, fold: str | None = None
    ) -> list[float]:
        """Durations of spans called ``name`` (under a parent in ``parents``, in
        round ``round_`` and fold ``fold``, where given)."""
        return [
            s.end - s.start
            for s in self.spans
            if s.name == name
            and (round_ is None or s.round == round_)
            and (fold is None or s.fold == fold)
            and (not parents or (s.parent is not None and self.spans[s.parent].name in parents))
        ]

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


class TracedPass:
    """Runs whole rounds of a workload's folds with every layer call traced."""

    def __init__(
        self, wl, inp: Path, out: Path, folds: list[str], init: Hyperparams, sims: list[SimConfig]
    ) -> None:
        self.wl, self.inp, self.out, self.folds = wl, inp, out, folds
        self.init, self.sims = init, sims
        self.tr = Tracer()
        self.newton_iters: dict[str, int] = {}
        self.hyper: dict[str, Hyperparams] = {}

    def round(self) -> tuple[int, int]:
        """One round over all folds; (steps attempted, failed)."""
        tr = self.tr
        with tr.span("round"):
            for sim in self.sims:
                with tr.span("simulate.simulate"):
                    simulate_dataset(sim)
            for fold in self.folds:
                tr.fold = fold
                with tr.span("fold"):
                    self._fold(fold)
                tr.fold = None
        tr.round += 1
        return (1 + 2 * self.wl.passes) * len(self.folds), 0

    def _fold(self, fold: str) -> None:
        tr, search = self.tr, self.wl.search
        f = self.wl.files(self.inp, self.out, fold)
        with tr.span("train"):
            with tr.span("data.parse"):
                train = parse_dataset(f["train"])
            hyper = self.init
            if search:
                with tr.span("gp.search"):
                    hyper = optimize_hyperparams(train, self.init, budget=search)
            with tr.span("gp.fit"):
                post = fit(train, hyper)
            with tr.span("gp.save"):
                save_model(GPModel(posterior=post, registry=dict(train.registry)), f["model"])
            with tr.span("gp.log_marginal"):
                log_marginal(post)
        self.newton_iters[fold] = post.newton_iters
        self.hyper[fold] = hyper

        for _ in range(self.wl.passes):
            with tr.span("predict"):
                with tr.span("gp.load"):
                    model = load_model(f["model"])
                with tr.span("data.parse"):
                    test = parse_dataset(f["test"])
                lines = ["match_id,p_w,p_d,p_l"]
                for rec in test.records:
                    with tr.span("gp.predict"):
                        p = model.predict(rec)
                    lines.append(f"{rec.match_id},{p.p_w!r},{p.p_d!r},{p.p_l!r}")
                Path(f["preds"]).write_text("\n".join(lines) + "\n", encoding="utf-8")

            with tr.span("evaluate"):
                with tr.span("data.parse"):
                    train_e = parse_dataset(f["train"])
                with tr.span("data.parse"):
                    test_e = parse_dataset(f["test"])
                with tr.span("gp.train_model"):
                    gp_model = train_model(train_e, hyper)
                with tr.span("baselines.elo_fit"):
                    elo = EloModel().fit(train_e)
                with tr.span("evaluation.evaluate"):
                    reports = evaluate([gp_model, elo, UniformModel()], test_e)
                # what the CLI writes besides: the summary table and the per-match file
                players = set(train_e.registry).union(*(r.players for r in test_e.records))
                format_summary_table(reports, train_e.n, len(players))
                write_per_match_csv(reports, f["per_match"])

        with tr.span("probe"):
            with tr.span("kernel.vectors"):
                vectors = [build_match_vector(r, train.registry) for r in train.records]
            with tr.span("kernel.gram"):
                kernel_matrix(vectors, vectors, hyper.kernel)
            test_vectors = [model.vector_for(r) for r in test.records]
            with tr.span("kernel.cross"):
                kernel_matrix(test_vectors, vectors, hyper.kernel)
            if search:
                with tr.span("gp.evidence"):
                    log_marginal(fit(train, self.init))
            else:
                # no search in this workload's train step: time the search's
                # fixed cost, a one-evaluation search
                with tr.span("gp.search"):
                    optimize_hyperparams(train, self.init, budget=1)
            draw = model.posterior.hyper.draw
            for rec in test.records:
                with tr.span("gp.latent"):
                    mu, var = model.predict_latent(rec)
                with tr.span("gp.quadrature"):
                    quadrature_outcome_probs(mu, var, draw)
            for rec in test.records:
                with tr.span("baselines.elo_predict"):
                    elo.predict(rec)

    def peak_allocations(self) -> tuple[float, float]:
        """Largest traced allocation peak (MB) of one fit and of one save, over folds."""
        fit_mb = save_mb = 0.0
        for fold in self.folds:
            f = self.wl.files(self.inp, self.out, fold)
            train = parse_dataset(f["train"])
            tracemalloc.start()
            try:
                post = fit(train, self.hyper[fold])
                fit_mb = max(fit_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                model = GPModel(posterior=post, registry=dict(train.registry))
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                save_model(model, f["model"])
                save_mb = max(save_mb, (tracemalloc.get_traced_memory()[1] - base) / 2**20)
            finally:
                tracemalloc.stop()
        return fit_mb, save_mb

    def metrics(self) -> dict[str, tuple[float, str]]:
        tr = self.tr

        def per_fold(*parts: tuple[str, tuple[str, ...]]) -> float:
            """Sum over folds and parts of the median duration of one call on the fold."""
            calls = (tr.durations(n, p, fold=fold) for fold in self.folds for n, p in parts)
            return sum(statistics.median(d) for d in calls if d)

        def per_call(name: str, scale: float) -> list[float]:
            return [d * scale for d in tr.durations(name)]

        predict_ms = per_call("gp.predict", 1e3)
        if self.wl.search:
            evidence = per_fold(("gp.evidence", ()))
        else:
            evidence = per_fold(("gp.fit", ("train",)), ("gp.log_marginal", ("train",)))
        fit_mb, save_mb = self.peak_allocations()
        return {
            "simulate.simulate_s": (
                statistics.median(sum(tr.durations("simulate.simulate", round_=r)) for r in range(tr.round)),
                "s",
            ),
            "data.parse_s": (per_fold(("data.parse", ("train",)), ("data.parse", ("predict",))), "s"),
            "kernel.vectors_s": (per_fold(("kernel.vectors", ())), "s"),
            "kernel.gram_s": (per_fold(("kernel.gram", ())), "s"),
            "kernel.cross_s": (per_fold(("kernel.cross", ())), "s"),
            "gp.fit_s": (per_fold(("gp.fit", ("train",))), "s"),
            "gp.newton_iters": (sum(self.newton_iters.values()), "count"),
            "gp.fit_peak_alloc_mb": (fit_mb, "MB"),
            "gp.save_peak_alloc_mb": (save_mb, "MB"),
            "gp.evidence_s": (evidence, "s"),
            "gp.search_s": (per_fold(("gp.search", ())), "s"),
            "gp.save_s": (per_fold(("gp.save", ())), "s"),
            "gp.load_s": (per_fold(("gp.load", ())), "s"),
            "gp.predict_ms": (statistics.median(predict_ms), "ms"),
            "gp.predict_ms_p90": (statistics.quantiles(predict_ms, n=10)[-1], "ms"),
            "gp.latent_ms": (statistics.median(per_call("gp.latent", 1e3)), "ms"),
            "gp.quadrature_us": (statistics.median(per_call("gp.quadrature", 1e6)), "us"),
            "baselines.elo_fit_s": (per_fold(("baselines.elo_fit", ())), "s"),
            "baselines.elo_predict_us": (statistics.median(per_call("baselines.elo_predict", 1e6)), "us"),
            "evaluation.evaluate_s": (per_fold(("evaluation.evaluate", ())), "s"),
            "trace.steps_s": (per_fold(*((s, ()) for s in STEPS)), "s"),
        }
