#!/usr/bin/env python3
"""Benchmark of the lineupgp CLI and its layers on three workloads.

    python3 perfbench/run.py --workload {season,search,cup} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  It writes the workload's inputs from
the seed in fresh interpreters (timed as set-up), then repeats whole
rounds of ``train -> predict -> evaluate`` over the workload's folds for
up to ``--seconds`` seconds (at least one round): through
``lineupgp.cli.run`` with ``--trace 0``, through the modules' public
functions with every layer call in a span with ``--trace 1``.  It checks
the outputs against references of its own and prints one JSON object as
its last line of standard output.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os

# one process, one BLAS thread; set before numpy loads, inherited by children
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# the README quickstart's hyperparameters; the search starts from them
INIT = {"sigma2": 0.09, "sigma2_home": 1.0, "alpha": 0.45}
STEPS = ("train", "predict", "evaluate")


@dataclass(frozen=True)
class Workload:
    name: str
    search: int  # evidence budget of `train --optimize`; 0 trains at INIT
    passes: int  # predict -> evaluate passes per fold and round

    @staticmethod
    def files(inp: Path, out: Path, fold: str) -> dict[str, str]:
        return {
            "train": str(inp / f"{fold}_train.csv"),
            "test": str(inp / f"{fold}_test.csv"),
            "truth": str(inp / f"{fold}_truth.json"),
            "model": str(out / f"{fold}_model.json"),
            "preds": str(out / f"{fold}_preds.csv"),
            "per_match": str(out / f"{fold}_per_match.csv"),
        }


WORKLOADS = {
    "season": Workload("season", 0, 1),
    # the search dwarfs a round; serving each searched model again gives
    # predict and evaluate several samples per run
    "search": Workload("search", 200, 4),
    "cup": Workload("cup", 0, 1),
}


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workload: str, seed: int, inp: Path, repeats: int) -> tuple[list[float], bool]:
    """Write the inputs ``repeats`` times in fresh interpreters; (seconds each, byte-identical)."""
    shutil.rmtree(inp, ignore_errors=True)
    argv = [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(inp)]
    times, digests = [], set()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        digests.add(_digest(inp))
    return times, len(digests) == 1


def hyper_flags(sigma2: float, sigma2_home: float, alpha: float) -> list[str]:
    return ["--sigma2", repr(sigma2), "--sigma2-home", repr(sigma2_home), "--alpha", repr(alpha)]


def model_hyper(path: str) -> dict:
    """sigma2, sigma2_home, log_alpha and the jitter used, read from a model file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {**payload["hyper"], "jitter_used": payload["jitter_used"]}


def cli(argv: list[str]) -> tuple[float, bool]:
    """One in-process CLI command; (wall seconds, exit code 0)."""
    import lineupgp.cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(sink):
        code = lineupgp.cli.run(argv)
    return time.perf_counter() - t0, code == 0


def _argv(step: str, wl: Workload, f: dict[str, str]) -> list[str]:
    init = hyper_flags(**INIT)
    if step == "train":
        search = ["--optimize", "--budget", str(wl.search)] if wl.search else []
        return ["train", "--train", f["train"], "--model-out", f["model"], *init, *search]
    if step == "predict":
        return ["predict", "--model", f["model"], "--test", f["test"], "--out", f["preds"]]
    if wl.search:
        h = model_hyper(f["model"])
        init = hyper_flags(h["sigma2"], h["sigma2_home"], math.exp(h["log_alpha"]))
    return [
        "evaluate", "--train", f["train"], "--test", f["test"], "--models", "gp,elo,random",
        *init, "--per-match-out", f["per_match"],
    ]


class Untraced:
    """Rounds of the CLI loop, each step timed as one in-process command.

    A round takes the folds in turn: ``train``, then ``passes`` passes of
    ``predict -> evaluate`` with the fresh model.  A step's figure is the
    sum over folds of its median time on the fold.
    """

    def __init__(self, wl: Workload, inp: Path, out: Path, folds: list[str]) -> None:
        self.wl, self.inp, self.out, self.folds = wl, inp, out, folds
        self.samples = {s: {fold: [] for fold in folds} for s in STEPS}

    def round(self) -> tuple[int, int]:
        """One round over all folds; (operations attempted, failed)."""
        steps = ("train",) + ("predict", "evaluate") * self.wl.passes
        attempted = failed = 0
        for fold in self.folds:
            f = self.wl.files(self.inp, self.out, fold)
            ok = True
            for step in steps:
                attempted += 1
                if ok:
                    took, ok = cli(_argv(step, self.wl, f))
                    self.samples[step][fold].append(took)
                failed += not ok
        return attempted, failed

    def medians(self) -> dict[str, float]:
        return {s: sum(statistics.median(t) for t in by_fold.values() if t) for s, by_fold in self.samples.items()}


def round_trip_probe(rt: Path) -> bool:
    """README's promise on a fixed league: ``predict`` with a saved model
    equals ``evaluate``'s gp rows bit for bit.

    The inputs do not depend on the seed.  With the program as it stands
    the operation fails on every run: a fresh fit keeps the Cholesky factor
    of B in Fortran order, a loaded one is C-ordered, and the triangular
    solve rounds the two differently in the last bit.
    """
    f = {"train": rt / "roundtrip_train.csv", "test": rt / "roundtrip_test.csv", "model": rt / "model.json"}
    init = hyper_flags(**INIT)
    for argv in (
        ["train", "--train", f["train"], "--model-out", f["model"], *init],
        ["predict", "--model", f["model"], "--test", f["test"], "--out", rt / "preds.csv"],
        ["evaluate", "--train", f["train"], "--test", f["test"], "--models", "gp", *init,
         "--per-match-out", rt / "per_match.csv"],
    ):
        if not cli([str(x) for x in argv])[1]:
            return False
    evaluated = checks.read_per_match(rt / "per_match.csv")["gp"]
    return checks.round_trip(checks.read_predictions(rt / "preds.csv"), evaluated) is None


def score(wl: Workload, inp: Path, out: Path, folds: list[str]):
    """Quality metrics and the failed checks, from the files the last round wrote."""
    from lineupgp.gp import load_model, log_marginal

    outcome_col = {1: 0, 0: 1, -1: 2}
    problems: list[str | None] = []
    gp_loss = exact_loss = neg_evidence = 0.0
    n_test = n_train = 0
    for fold in folds:
        f = wl.files(inp, out, fold)
        truth = json.loads(Path(f["truth"]).read_text(encoding="utf-8"))
        skills = truth["skills"]
        preds = checks.read_predictions(f["preds"])
        per_model = checks.read_per_match(f["per_match"])
        problems.append(checks.triples(f"{fold} predict", preds))
        problems += [checks.triples(f"{fold} evaluate {m}", p) for m, p in per_model.items()]
        problems.append(checks.round_trip(preds, per_model.get("gp", {}), checks.ROUND_TRIP_TOL))

        train, test = reference.read_matches(f["train"]), reference.read_matches(f["test"])
        h = model_hyper(f["model"])
        ref = reference.LaplaceReference(train, h["sigma2"], h["sigma2_home"], math.exp(h["log_alpha"]), h["jitter_used"])
        problems.append(checks.against_reference(preds, ref.predict(test)))
        for m in test:
            col = outcome_col[m.code]
            latent = sum(skills[p] for p in m.lineup1) - sum(skills[p] for p in m.lineup2) + truth["home"] * m.home
            gp_loss -= math.log(preds[m.match_id][col])
            exact_loss -= math.log(reference.outcome_probs(latent, 0.0, truth["alpha"])[col])
        n_test += len(test)
        post = load_model(f["model"]).posterior
        neg_evidence -= log_marginal(post)
        n_train += post.n
        if wl.search:
            start = reference.LaplaceReference(train, INIT["sigma2"], INIT["sigma2_home"], INIT["alpha"], 1e-6 * INIT["sigma2"])
            problems.append(checks.search_result(ref.log_evidence, start.log_evidence, h["log_alpha"], truth["alpha"]))
    problems.append(checks.below_ln3(gp_loss / n_test))
    quality = {
        "gp_log_loss_ratio": (gp_loss / exact_loss, "1"),
        "neg_log_evidence_per_match": (neg_evidence / n_train, "1"),
    }
    return quality, [p for p in problems if p]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "lineupgp" / "__init__.py").is_file():
        print(f"perfbench: no lineupgp sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[a.workload]
    inp, out = HERE / "work" / wl.name / "inputs", HERE / "work" / wl.name / "outputs"
    setup_times, repeatable = set_up(wl.name, a.seed, inp, 1 if a.trace else SETUP_REPEATS)
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    import numpy as np

    folds = json.loads((inp / "folds.json").read_text(encoding="utf-8"))
    print(
        f"perfbench: {wl.name} seed {a.seed}, folds {folds}, python {sys.version.split()[0]}, "
        f"numpy {np.__version__}, BLAS threads {BLAS_THREADS}",
        file=sys.stderr,
    )

    import inputs

    rt = HERE / "work" / wl.name / "roundtrip"
    inputs.write_round_trip(rt)
    if a.trace:
        import traced
        from lineupgp.gp import Hyperparams
        from lineupgp.simulate import SimConfig

        leagues = inputs.league_folds(wl.name, a.seed) if wl.name in inputs.LEAGUES else [(None, a.seed)]
        sims = [SimConfig(seed=s, **inputs.LEAGUES.get(wl.name, {})) for _, s in leagues]
        runner = traced.TracedPass(wl, inp, out, folds, Hyperparams.create(**INIT), sims)
    else:
        runner = Untraced(wl, inp, out, folds)
    # whole rounds, at least one, while the next round still ends within
    # --seconds if it takes as long as the longest so far
    attempted = failed = 0
    longest = elapsed = 0.0
    start = time.perf_counter()
    while not attempted or elapsed + longest <= a.seconds:
        began = time.perf_counter()
        tried, lost = runner.round()
        attempted += tried + 1
        failed += lost + (not round_trip_probe(rt))
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
    if a.trace:
        metrics = runner.metrics()
        runner.tr.dump(out / "trace.json")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            **{f"{s}_s": (v, "s") for s, v in runner.medians().items()},
            "model_bytes": (sum(os.path.getsize(wl.files(inp, out, f)["model"]) for f in folds), "bytes"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    quality, problems = score(wl, inp, out, folds)
    if not a.trace:
        metrics.update(quality)
    if not repeatable:
        problems.append("the same seed wrote different input files")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
