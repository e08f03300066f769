"""Tests of the benchmark's own code: the cup generator, the reference fit, the checks."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

import checks
import cup
import reference
from reference import LaplaceReference, Match


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestCupGenerator:
    def test_same_seed_writes_the_same_bytes(self, tmp_path):
        names = cup.write(cup.generate(5), tmp_path / "a")
        assert names == cup.write(cup.generate(5), tmp_path / "b")
        cup.write(cup.generate(6), tmp_path / "c")
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
        assert (tmp_path / "a" / "cup1_train.csv").read_bytes() != (tmp_path / "c" / "cup1_train.csv").read_bytes()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_window_keeps_n_below_p_plus_one(self, tmp_path, seed):
        names = cup.write(cup.generate(seed), tmp_path)
        assert len(names) == cup.SEASONS // cup.TOURNAMENT_EVERY
        for name in names:
            train = _csv_rows(tmp_path / f"{name}_train.csv")
            test = _csv_rows(tmp_path / f"{name}_test.csv")
            seen = {p for r in train for side in ("lineup1", "lineup2") for p in r[side].split(";")}
            assert len(train) < len(seen) + 1
            assert len(test) == cup.NATIONS // cup.GROUP_SIZE * 6
            assert max(r["date"] for r in train) < min(r["date"] for r in test)
            assert {r["home"] for r in test} == {"0"}
            unseen = [r for r in test if any(p not in seen for s in ("lineup1", "lineup2") for p in r[s].split(";"))]
            assert 0 < len(unseen) < len(test)


def _match(rng, mid, universe, home=None):
    picks = rng.permutation(universe)[:22]
    return Match(
        mid,
        tuple(f"p{i:02d}" for i in picks[:11]),
        tuple(f"p{i:02d}" for i in picks[11:]),
        float(rng.choice([1.0, -1.0, 0.0]) if home is None else home),
        int(rng.choice([1, 0, -1])),
    )


class TestReferenceFit:
    def test_likelihood_sums_to_one_and_matches_finite_differences(self):
        f = np.linspace(-6.0, 6.0, 41)
        for alpha in (0.1, 0.45, 2.0):
            p = [np.exp(reference.loglik(np.full_like(f, c, dtype=int), f, alpha)) for c in (1, 0, -1)]
            assert np.max(np.abs(sum(p) - 1.0)) < 1e-13
            for code in (1, 0, -1):
                codes = np.full_like(f, code, dtype=int)
                d1, d2 = reference.loglik_d12(codes, f, alpha)
                h = 1e-4
                up, mid, down = (reference.loglik(codes, f + s, alpha) for s in (h, 0.0, -h))
                assert np.allclose(d1, (up - down) / (2 * h), atol=1e-7)
                assert np.allclose(d2, (up - 2 * mid + down) / h**2, atol=1e-5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_case_matches_brute_force_integration(self, n):
        """Laplace evidence against a dense grid integral of N(f; 0, K) p(y|f),
        and the mode against the grid's argmax, where sigma2 is small enough
        for the posterior to be close to Gaussian."""
        rng = np.random.default_rng(100 + n)
        train = [_match(rng, f"m{i}", 30) for i in range(n)]
        sigma2, sigma2_home, alpha = 0.01, 0.005, 0.45
        ref = LaplaceReference(train, sigma2, sigma2_home, alpha)
        assert ref.dual

        z = ref.z.toarray()
        k = sigma2 * z @ z.T + sigma2_home * np.outer(ref.h, ref.h)
        sd = math.sqrt(k[0, 0])
        axis = np.linspace(-8 * sd, 8 * sd, 2001 if n == 1 else 601)
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        f = np.stack([g.ravel() for g in grids], axis=1)
        log_prior = -0.5 * np.einsum("ij,jk,ik->i", f, np.linalg.inv(k), f)
        log_prior -= 0.5 * (n * math.log(2 * math.pi) + np.linalg.slogdet(k)[1])
        log_post = log_prior + sum(reference.loglik(np.full(len(f), ref.codes[i]), f[:, i], alpha) for i in range(n))
        cell = (axis[1] - axis[0]) ** n
        brute = float(np.log(np.sum(np.exp(log_post - log_post.max())) * cell) + log_post.max())
        assert abs(ref.log_evidence - brute) < 5e-3

        mode, _ = ref.latent(train)
        assert np.max(np.abs(mode - f[np.argmax(log_post)])) <= axis[1] - axis[0]

    def test_dual_and_weight_space_agree(self):
        rng = np.random.default_rng(7)
        train = [_match(rng, f"m{i}", 26) for i in range(40)]
        test = [_match(rng, f"t{i}", 30) for i in range(8)]  # ids p26..p29 unseen
        fits = [LaplaceReference(train, 0.2, 0.5, 0.45, dual=d) for d in (True, False)]
        assert not LaplaceReference(train, 0.2, 0.5, 0.45).dual
        (mu_d, var_d), (mu_w, var_w) = (r.latent(test) for r in fits)
        assert np.allclose(mu_d, mu_w, atol=1e-9, rtol=0)
        assert np.allclose(var_d, var_w, atol=1e-9, rtol=0)
        assert abs(fits[0].log_evidence - fits[1].log_evidence) < 1e-8

    def test_quadrature_against_a_closed_form_and_a_point(self):
        # E[sigmoid(f)] at mu = 0 is 1/2 for any variance, by symmetry
        p_w, p_d, p_l = reference.outcome_probs(0.0, 3.0, 1e-12)
        assert abs(p_w - 0.5) < 1e-12 and abs(p_l - 0.5) < 1e-12
        point = reference.outcome_probs(0.7, 0.0, 0.45)
        assert abs(point[0] - 1 / (1 + math.exp(0.45 - 0.7))) < 1e-15


GOOD: checks.Probs = {"a": (0.5, 0.3, 0.2), "b": (0.25, 0.25, 0.5)}


def _perturb(probs, mid, col, new):
    p = list(probs[mid])
    p[col] = new
    return {**probs, mid: tuple(p)}


class TestChecksFailOnPerturbedProbabilities:
    def test_triples(self):
        assert checks.triples("x", GOOD) is None
        assert checks.triples("x", _perturb(GOOD, "a", 0, 0.5 + 1e-11)) is not None
        assert checks.triples("x", _perturb(GOOD, "a", 1, math.nan)) is not None
        assert checks.triples("x", {"a": (1.25, -0.05, -0.2)}) is not None

    def test_round_trip(self):
        assert checks.round_trip(GOOD, dict(GOOD)) is None
        one_ulp = _perturb(GOOD, "b", 2, np.nextafter(0.5, 1.0))
        assert checks.round_trip(GOOD, one_ulp) is not None
        assert checks.round_trip(GOOD, one_ulp, checks.ROUND_TRIP_TOL) is None
        assert checks.round_trip(GOOD, _perturb(GOOD, "b", 2, 0.5 + 1e-9), checks.ROUND_TRIP_TOL) is not None
        assert checks.round_trip(GOOD, {"a": GOOD["a"]}) is not None

    def test_against_reference(self):
        assert checks.against_reference(GOOD, _perturb(GOOD, "a", 0, 0.5 + 5e-7)) is None
        assert checks.against_reference(GOOD, _perturb(GOOD, "a", 0, 0.5 + 2e-6)) is not None

    def test_below_ln3(self):
        outcomes = {"a": 0, "b": 2}

        def loss(probs):
            return -sum(math.log(probs[m][c]) for m, c in outcomes.items()) / len(outcomes)

        assert checks.below_ln3(loss(GOOD)) is None
        assert checks.below_ln3(loss(_perturb(GOOD, "a", 0, 1e-3))) is not None

    def test_search_result(self):
        assert checks.search_result(-500.0, -510.0, math.log(0.45), 0.45) is None
        assert checks.search_result(-510.0, -500.0, math.log(0.45), 0.45) is not None
        assert checks.search_result(-500.0, -510.0, math.log(0.45) + 0.71, 0.45) is not None
