"""Sparse player-overlap kernel against a dense dot-product oracle."""

from __future__ import annotations

import dataclasses
import hashlib
import io

import numpy as np
import pytest

from conftest import (
    dense_kernel,
    make_record,
    player_ids,
    random_dataset,
)
from lineupgp.data import CSV_HEADER, Dataset, HomeSide, parse_dataset
from lineupgp.errors import DataError
from lineupgp.kernel import (
    SELF_OVERLAP,
    KernelParams,
    MatchVector,
    build_match_vector,
    export_heatmap,
    gram,
    kernel_matrix,
)
from oracles import kernel_eval, signed_overlap


def _vec(plus, minus, home=0):
    return MatchVector(
        plus_indices=np.array(sorted(plus), dtype=np.int32),
        minus_indices=np.array(sorted(minus), dtype=np.int32),
        home=home,
    )


def _dataset_vectors(seed, n=15, players=45):
    ds = random_dataset(np.random.default_rng(seed), n, players)
    vecs = [build_match_vector(r, ds.registry) for r in ds.records]
    return ds, vecs


class TestKernelParams:
    def test_defaults_and_jitter(self):
        # the kernel is exactly sigma2 Z Z' + sigma2_home h h': no jitter to set
        assert KernelParams() == KernelParams(sigma2=1.0, sigma2_home=1.0)
        assert [f.name for f in dataclasses.fields(KernelParams)] == ["sigma2", "sigma2_home"]
        with pytest.raises(TypeError):
            KernelParams(sigma2=1.0, sigma2_home=1.0, jitter=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelParams(sigma2=0.0, sigma2_home=1.0)
        with pytest.raises(ValueError):
            KernelParams(sigma2=1.0, sigma2_home=-0.5)


class TestMatchVector:
    def test_build_from_record(self):
        ids = player_ids(30)
        rec = make_record("m1", ids[5:16], ids[16:27], home=HomeSide.TEAM1)
        registry = {pid: i for i, pid in enumerate(ids)}
        vec = build_match_vector(rec, registry)
        assert vec.plus_indices.tolist() == list(range(5, 16))
        assert vec.minus_indices.tolist() == list(range(16, 27))
        assert vec.home == 1

    def test_unknown_player_names_match_and_player(self):
        ids = player_ids(30)
        rec = make_record("m7", ids[:11], ids[11:22])
        registry = {pid: i for i, pid in enumerate(ids[:21])}
        with pytest.raises(DataError, match="m7.*p021"):
            build_match_vector(rec, registry)

    def test_validation(self):
        with pytest.raises(ValueError):
            _vec(range(10), range(11, 22))  # too few plus
        with pytest.raises(ValueError):
            _vec(range(11), range(10, 21))  # overlap
        with pytest.raises(ValueError):
            _vec(range(11), range(11, 22), home=2)

    def test_arrays_read_only(self):
        v = _vec(range(11), range(11, 22))
        with pytest.raises(ValueError):
            v.plus_indices[0] = 99


class TestSignedOverlap:
    def test_self_overlap_is_22(self):
        _, vecs = _dataset_vectors(31)
        for v in vecs:
            assert signed_overlap(v, v) == SELF_OVERLAP

    def test_matches_dense_oracle(self):
        ds, vecs = _dataset_vectors(32, n=20, players=40)
        p = ds.num_players
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                want = dense_kernel(vecs[i], vecs[j], 1.0, 0.0, p)
                assert signed_overlap(vecs[i], vecs[j]) == int(want)

    def test_symmetric_and_bounded(self):
        _, vecs = _dataset_vectors(33)
        for a in vecs:
            for b in vecs:
                s = signed_overlap(a, b)
                assert s == signed_overlap(b, a)
                assert -SELF_OVERLAP <= s <= SELF_OVERLAP

    def test_side_swap_negates(self):
        _, vecs = _dataset_vectors(34, n=8)
        for v in vecs[1:]:
            flipped = MatchVector(
                plus_indices=v.minus_indices,
                minus_indices=v.plus_indices,
                home=-v.home,
            )
            assert signed_overlap(vecs[0], flipped) == -signed_overlap(vecs[0], v)


class TestKernelEval:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(41)
        ds, vecs = _dataset_vectors(41, n=18, players=50)
        p_count = ds.num_players
        for _ in range(60):
            i, j = rng.integers(len(vecs), size=2)
            sigma2 = float(rng.uniform(0.01, 3.0))
            sigma2_home = float(rng.uniform(0.0, 2.0))
            params = KernelParams(sigma2=sigma2, sigma2_home=sigma2_home)
            want = dense_kernel(vecs[i], vecs[j], sigma2, sigma2_home, p_count)
            got = kernel_eval(vecs[i], vecs[j], params)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_diagonal_value(self):
        _, vecs = _dataset_vectors(42)
        params = KernelParams(sigma2=0.3, sigma2_home=0.7)
        for v in vecs:
            assert kernel_eval(v, v, params) == 0.3 * SELF_OVERLAP + 0.7 * (v.home * v.home)

    def test_hand_computed_gram(self):
        a = _vec(range(0, 11), range(11, 22))
        b = _vec(range(0, 11), range(22, 33))
        c = _vec(range(11, 22), range(22, 33))
        params = KernelParams(sigma2=1.0, sigma2_home=0.0)
        want = np.array(
            [
                [22.0, 11.0, -11.0],
                [11.0, 22.0, 11.0],
                [-11.0, 11.0, 22.0],
            ]
        )
        got = kernel_matrix([a, b, c], [a, b, c], params)
        assert np.array_equal(got, want)


class TestKernelMatrix:
    def test_single_match_is_22_sigma2(self):
        _, vecs = _dataset_vectors(51, n=1)
        params = KernelParams(sigma2=1.0, sigma2_home=0.0)
        assert kernel_matrix(vecs, vecs, params).tolist() == [[22.0]]

    def test_exact_match_with_kernel_eval(self):
        _, vecs = _dataset_vectors(52, n=12)
        params = KernelParams(sigma2=0.17, sigma2_home=0.55)
        k = kernel_matrix(vecs, vecs, params)
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                assert k[i, j] == kernel_eval(vecs[i], vecs[j], params)

    def test_integer_case_equals_dense_gram(self):
        ds, vecs = _dataset_vectors(53, n=25, players=60)
        params = KernelParams(sigma2=1.0, sigma2_home=1.0)
        dense = np.array(
            [[dense_kernel(a, b, 1.0, 1.0, ds.num_players) for b in vecs] for a in vecs]
        )
        assert np.array_equal(kernel_matrix(vecs, vecs, params), dense)

    def test_symmetric_and_near_psd(self):
        for seed in (54, 55, 56):
            _, vecs = _dataset_vectors(seed, n=20)
            params = KernelParams(sigma2=0.4, sigma2_home=0.9)
            k = kernel_matrix(vecs, vecs, params)
            assert np.array_equal(k, k.T)
            eig = np.linalg.eigvalsh(k)
            assert eig[0] >= -1e-8 * max(eig[-1], 1.0)

    def test_rectangular_cross_block(self):
        ds, vecs = _dataset_vectors(59, n=10, players=40)
        params = KernelParams(sigma2=0.8, sigma2_home=0.3)
        cross = kernel_matrix(vecs[:3], vecs[3:], params)
        assert cross.shape == (3, 7)
        for i in range(3):
            for j in range(7):
                assert cross[i, j] == kernel_eval(vecs[i], vecs[3 + j], params)

    def test_gram_adds_the_home_term_bit_for_bit(self):
        # gram adds sigma2_home * h_r h_c' in place, row by sign; it must round
        # as the sum of the two scaled matrices for any shape and zero signs
        rng = np.random.default_rng(60)
        params = KernelParams(sigma2=0.37, sigma2_home=0.81)
        for rows, cols in ((7, 5), (3, 9), (6, 6)):
            overlap = rng.integers(-22, 23, size=(rows, cols))
            homes_r = rng.integers(-1, 2, size=rows)
            homes_c = rng.integers(-1, 2, size=cols)
            homes_r[0], homes_c[-1] = 0, 0
            want = params.sigma2 * overlap + params.sigma2_home * np.outer(homes_r, homes_c)
            got = gram(overlap, homes_r, homes_c, params)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_empty_inputs(self):
        params = KernelParams()
        assert kernel_matrix([], [], params).shape == (0, 0)
        _, vecs = _dataset_vectors(61, n=2)
        assert kernel_matrix(vecs, [], params).shape == (2, 0)


class TestHeatmapExport:
    def test_two_disjoint_matches(self):
        ids = player_ids(44)
        recs = [
            make_record("m1", ids[:11], ids[11:22], competition="cup"),
            make_record("m2", ids[22:33], ids[33:44], competition="cup"),
        ]
        ds = Dataset.from_records(recs)
        grid = io.StringIO()
        blocks = io.StringIO()
        export_heatmap(ds, KernelParams(sigma2=1.0, sigma2_home=0.0), grid, blocks)
        rows = [line.split(",") for line in grid.getvalue().strip().split("\n")]
        assert rows[0] == ["match_id", "m1", "m2"]
        assert rows[1] == ["m1", "22", "0"]
        assert rows[2] == ["m2", "0", "22"]
        assert blocks.getvalue() == "competition,start_row,end_row\ncup,0,2\n"

    def test_magnitudes_and_competition_blocks(self):
        ids = player_ids(33)
        a = make_record("m1", ids[:11], ids[11:22], competition="league-b")
        # same lineups swapped: raw kernel value is -22, the grid stores 22
        b = make_record("m2", ids[11:22], ids[:11], competition="league-b", team1="gamma")
        c = make_record("m3", ids[11:22], ids[22:33], competition="league-a")
        ds = Dataset.from_records([a, b, c])
        grid = io.StringIO()
        blocks = io.StringIO()
        export_heatmap(ds, KernelParams(sigma2=1.0, sigma2_home=0.0), grid, blocks)
        rows = [line.split(",") for line in grid.getvalue().strip().split("\n")]
        # league-a sorts before league-b, so m3 leads
        assert rows[0] == ["match_id", "m3", "m1", "m2"]
        body = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        assert np.all(body >= 0.0)
        assert body[1, 2] == 22.0  # |k(m1, m2)| = |-22|
        assert blocks.getvalue() == (
            "competition,start_row,end_row\nleague-a,0,1\nleague-b,1,3\n"
        )

    def test_empty_dataset(self):
        ds = Dataset(records=(), registry={})
        grid = io.StringIO()
        export_heatmap(ds, KernelParams(sigma2=1.0, sigma2_home=0.0), grid, None)
        assert grid.getvalue() == "match_id\n"

    @staticmethod
    def _hand_built_file(path):
        """12 matches, rows written newest first, in three competitions and all three venues."""
        ids = [f"p{i:02d}" for i in range(30)]
        rows = []
        for i in range(12):
            lineup1 = ";".join(ids[(3 * i + k) % 30] for k in range(11))
            lineup2 = ";".join(ids[(3 * i + 11 + k) % 30] for k in range(11))
            competition = ("league-b", "cup", "league-a")[i % 3]
            date = f"2022-01-{1 + i // 4:02d}"
            rows.append(f"m{i},{date},{competition},alpha,beta,{'120'[i % 3]},{lineup1},{lineup2},{'WDL'[i % 3]}")
        path.write_text("\n".join([",".join(CSV_HEADER), *reversed(rows)]) + "\n", encoding="utf-8")
        return path

    def test_pinned_bytes(self, tmp_path):
        # pinned digests of the grid and blocks; equal dates sort by
        # match_id as strings
        ds = parse_dataset(self._hand_built_file(tmp_path / "league.csv"))
        grid, blocks = tmp_path / "grid.csv", tmp_path / "grid.blocks.csv"
        export_heatmap(ds, KernelParams(sigma2=0.09, sigma2_home=0.7), grid, blocks)
        assert grid.read_text().splitlines()[0] == "match_id,m1,m4,m7,m10,m2,m5,m11,m8,m0,m3,m6,m9"
        assert hashlib.sha256(grid.read_bytes()).hexdigest() == (
            "455c78a9012d144720a62734c47bde929480559f3701ecf15b33521cc945b903"
        )
        assert hashlib.sha256(blocks.read_bytes()).hexdigest() == (
            "dbb6937b8f058788baa3e9557381c5a3f1b856eb29befd06cf37dd3ea28f1c91"
        )

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        grid, blocks = io.StringIO(), io.StringIO()
        export_heatmap(parse_dataset(path), KernelParams(sigma2=0.09, sigma2_home=0.7), grid, blocks)
        assert grid.getvalue() == "match_id\n"
        assert blocks.getvalue() == "competition,start_row,end_row\n"

    def test_file_output(self, tmp_path):
        ds = random_dataset(np.random.default_rng(71), 5, 30)
        grid_path = tmp_path / "grid.csv"
        blocks_path = tmp_path / "grid.blocks.csv"
        export_heatmap(ds, KernelParams(sigma2=1.0, sigma2_home=1.0), grid_path, blocks_path)
        lines = grid_path.read_text().strip().split("\n")
        assert len(lines) == 6
        assert blocks_path.read_text().startswith("competition,start_row,end_row")
