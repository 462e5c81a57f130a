"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s or -rA to see them). Tolerances are exact everywhere; the only
numeric budgets are wall-clock limits, asserted inside each criterion.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass
from random import Random

import pytest

from conftest import random_origin_window_instance
from isorbit import (
    GeneratingSet,
    Isometry,
    OrbitLabeling,
    SignedPermutation,
    compute_labeling,
    compute_orbits,
    hnf_reduce,
    run_stage1,
    validate_atomic,
)
from isorbit.cli import main
from reference import (
    DEFAULT_MAX_PADDING,
    NotStabilizedError,
    Partition,
    bfs_orbits,
    lattice_contains,
    reduce_mod_lattice,
    reference_labeling,
    reference_stage1,
    rotation_group,
    stabilized_bfs_orbits,
)


class criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, num: int, desc: str):
        self.num, self.desc = num, desc

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.num} ({elapsed:.2f}s): {self.desc}")
        return False


def diagonal_reflection_gens() -> GeneratingSet:
    return validate_atomic(
        [Isometry.translation((1, 1)),
         Isometry.rotation(SignedPermutation.negation((-1, -1)))], 2)


UNIT_SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]

DIAGONAL_GENS_DOC = {"n": 2, "generators": [
    {"type": "translation", "v": [1, 1]},
    {"type": "negation", "signs": [-1, -1]},
]}


def flip_and_adjacent_transpositions(n: int) -> GeneratingSet:
    raw = [Isometry.rotation(SignedPermutation.negation(
        tuple(-1 if i == 0 else 1 for i in range(n))))]
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        raw.append(Isometry.rotation(SignedPermutation.permutation(tuple(perm))))
    return validate_atomic(raw, n)


def test_criterion_1_window_trap():
    with criterion(1, "classes merge although every path leaves the window, < 1 s"):
        t0 = time.perf_counter()
        labeling = compute_orbits(diagonal_reflection_gens(), UNIT_SQUARE)
        elapsed = time.perf_counter() - t0
        assert labeling.partition() == {
            frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}
        assert labeling.labels[(1, 0)] == labeling.labels[(0, 1)]
        assert elapsed < 1.0


def test_criterion_2_translations_only_singletons():
    with criterion(2, "even translations keep the unit square apart, < 1 s"):
        gens = validate_atomic(
            [Isometry.translation((2, 0)), Isometry.translation((0, 2))], 2)
        t0 = time.perf_counter()
        labeling = compute_orbits(gens, UNIT_SQUARE)
        elapsed = time.perf_counter() - t0
        assert labeling.partition() == {frozenset({p}) for p in UNIT_SQUARE}
        assert labeling.labels[(0, 0)] != labeling.labels[(1, 1)]
        assert elapsed < 1.0


def test_criterion_3_rotation_group_orders():
    with criterion(3, "flip + adjacent swaps generate 2^n * n! rotations, < 5 s"):
        t0 = time.perf_counter()
        orders = {}
        for n in (2, 3, 4):
            stage1 = run_stage1(flip_and_adjacent_transpositions(n))
            assert rotation_group(stage1).order == stage1.rotation_order
            orders[n] = stage1.rotation_order
        elapsed = time.perf_counter() - t0
        assert orders == {2: 8, 3: 48, 4: 384}
        assert all(orders[n] == (2 ** n) * math.factorial(n) for n in orders)
        assert elapsed < 5.0


@dataclass
class SweepRecord:
    gens: GeneratingSet
    points: list
    neg_equal: bool
    basis_equal: bool
    lab_reference: OrbitLabeling
    lab_pipeline: OrbitLabeling
    oracle: Partition
    stabilized: bool
    adjudicated: bool


@pytest.fixture(scope="module")
def sweep():
    rng = Random(20260810)
    t0 = time.perf_counter()
    records = []
    for _ in range(200):
        gens, points = random_origin_window_instance(rng)
        stage_ref = reference_stage1(gens)
        stage1 = run_stage1(gens)
        lab_reference = reference_labeling(stage_ref, points)
        lab_pipeline = compute_labeling(stage1, points)
        try:
            oracle_part, _pad = stabilized_bfs_orbits(gens, points, DEFAULT_MAX_PADDING)
            stabilized = True
        except NotStabilizedError as e:
            oracle_part, stabilized = e.partition, False
        adjudicated = False
        if stabilized and oracle_part != lab_pipeline.partition():
            # two agreeing paddings can stop the reference walk before a
            # merge that needs a larger box; adjudicate with a much deeper
            # box before judging the pipeline
            oracle_part = bfs_orbits(gens, points, 12, box_cap=2_000_000)
            adjudicated = True
        records.append(SweepRecord(
            gens, points,
            stage_ref.neg_basis == stage1.neg_basis,
            stage_ref.basis == stage1.basis,
            lab_reference, lab_pipeline, oracle_part, stabilized, adjudicated))
    return records, time.perf_counter() - t0


def test_criterion_4_oracle_equivalence_sweep(sweep):
    records, elapsed = sweep
    stabilized = [r for r in records if r.stabilized]
    adjudicated = sum(1 for r in records if r.adjudicated)
    with criterion(4, f"200 random instances vs independent reference "
                      f"({len(stabilized)}/200 stabilized, {adjudicated} early "
                      f"stops adjudicated deeper, sweep {elapsed:.1f}s), < 60 s"):
        assert len(records) == 200
        assert len(stabilized) >= 190  # at least 95 percent
        assert adjudicated <= 10  # early stops must stay the rare exception
        for r in stabilized:
            assert r.lab_pipeline.partition() == r.oracle
        assert elapsed < 60.0


def test_criterion_5_variant_agreement(sweep):
    records, _elapsed = sweep
    with criterion(5, "negation, lattice and merge agree with the explicit-group "
                      "reference on all 200"):
        for r in records:
            assert r.neg_equal
            assert r.basis_equal
            assert r.lab_reference == r.lab_pipeline


def test_criterion_6_projection_property_suite():
    with criterion(6, "10,000 projection property checks, < 10 s"):
        rng = Random(60001)
        t0 = time.perf_counter()
        pairs = 0
        while pairs < 10_000:
            n = rng.randint(1, 5)
            rows = [tuple(rng.randint(-4, 4) for _ in range(n))
                    for _ in range(rng.randint(0, n))]
            basis = hnf_reduce(rows, n)
            pivots = [(c, row[c]) for row in basis.hnf_rows
                      for c in [next(i for i, b in enumerate(row) if b)]]
            for _ in range(25):
                x = tuple(rng.randint(-20, 20) for _ in range(n))
                rep = reduce_mod_lattice(basis, x)
                assert reduce_mod_lattice(basis, rep) == rep
                assert lattice_contains(basis, tuple(a - b for a, b in zip(x, rep)))
                mu = [rng.randint(-3, 3) for _ in range(basis.m)]
                shifted = tuple(
                    xi + sum(m * row[k] for m, row in zip(mu, basis.hnf_rows))
                    for k, xi in enumerate(x))
                assert reduce_mod_lattice(basis, shifted) == rep
                assert all(0 <= rep[c] < p for c, p in pivots)
                pairs += 1
        elapsed = time.perf_counter() - t0
        assert pairs >= 10_000
        assert elapsed < 10.0


def _cli_bytes(tmp_path, tag, gens_doc, box, run):
    gens_path = tmp_path / f"gens_{tag}.json"
    gens_path.write_text(json.dumps(gens_doc), encoding="utf-8")
    out = tmp_path / f"out_{tag}_{run}"
    code = main(["--gens", str(gens_path), "--box", box, "--output", str(out)])
    assert code == 0
    return out.read_bytes()


def test_criterion_7_thread_count_determinism(tmp_path):
    with criterion(7, "outputs byte-identical across three reruns"):
        flip_swaps_doc = {"n": 4, "generators": [
            {"type": "negation", "signs": [-1, 1, 1, 1]},
            {"type": "permutation", "perm": [1, 0, 2, 3]},
            {"type": "permutation", "perm": [0, 2, 1, 3]},
            {"type": "permutation", "perm": [0, 1, 3, 2]},
        ]}
        for tag, doc, box in (
                ("diag", DIAGONAL_GENS_DOC, "0..1,0..1"),
                ("flip4", flip_swaps_doc, "0..1,0..1,0..1,0..1")):
            outputs = {_cli_bytes(tmp_path, tag, doc, box, run) for run in range(3)}
            assert len(outputs) == 1


def test_criterion_8_desk_scale_throughput(tmp_path):
    with criterion(8, "n=6, |S|=6, 10,000 points end to end, < 30 s"):
        gens_doc = {"n": 6, "generators": [
            {"type": "translation", "v": [2, 0, 0, 0, 0, 0]},
            {"type": "translation", "v": [0, 2, 0, 0, 0, 0]},
            {"type": "translation", "v": [0, 0, 2, 0, 0, 0]},
            {"type": "negation", "signs": [-1, 1, 1, 1, 1, 1]},
            {"type": "permutation", "perm": [1, 0, 2, 3, 4, 5]},
            {"type": "permutation", "perm": [1, 2, 3, 4, 5, 0]},
        ]}
        gens_path = tmp_path / "gens6.json"
        gens_path.write_text(json.dumps(gens_doc), encoding="utf-8")
        out = tmp_path / "out6.json"
        t0 = time.perf_counter()
        code = main(["--gens", str(gens_path),
                     "--box", "0..9,0..9,0..9,0..9,0..0,0..0",
                     "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rotation_order"] == 64 * 720 == 46080
        assert doc["rank_m"] == 6
        # independent check: the lattice is the doubled grid, signs vanish
        # modulo 2 and the permutations reach all of Sym_6, so two points are
        # equivalent exactly when their coordinate parities agree up to
        # permutation, i.e. when their parity popcounts match
        points = list(itertools.product(range(10), range(10), range(10),
                                        range(10), range(1), range(1)))
        expected = {}
        for p in points:
            expected.setdefault(sum(c % 2 for c in p), set()).add(p)
        got = {frozenset(map(tuple, c["members"])) for c in doc["classes"]}
        assert got == {frozenset(v) for v in expected.values()}
        assert len(doc["classes"]) == 5
        assert sum(len(c["members"]) for c in doc["classes"]) == 10_000
        assert elapsed < 30.0


def test_criterion_9_hnf_canonicality():
    with criterion(9, "1,000 random bases invariant under shuffles and "
                      "redundant rows, < 5 s"):
        rng = Random(90001)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = rng.randint(1, 4)
            rows = [tuple(rng.randint(-9, 9) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            reference = hnf_reduce(rows, n)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert hnf_reduce(shuffled, n) == reference
            coeffs = [rng.randint(-3, 3) for _ in rows]
            combo = tuple(sum(c * r[k] for c, r in zip(coeffs, rows))
                          for k in range(n))
            assert hnf_reduce(rows + [combo], n) == reference
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
