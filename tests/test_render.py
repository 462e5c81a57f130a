"""Output bytes: the direct JSON writer against json.dumps, the column-fed
TSV writer against the line-by-line one, and golden hashes of whole CLI
runs on small inputs shaped like the benchmark workloads."""

import hashlib
import json
from random import Random

import pytest

from isorbit import OrbitLabeling, compute_labeling, run_stage1, validate_atomic
from isorbit.cli import main, parse_generators, render_json, render_tsv
from reference import dumps_reference, line_by_line_render_tsv


def labeling_of(groups) -> OrbitLabeling:
    """An OrbitLabeling with the given classes, labelled by their minima."""
    labels = {x: min(g) for g in groups for x in g}
    points = sorted(labels)
    return OrbitLabeling(tuple(points), tuple(map(labels.__getitem__, points)))


def stage1_for(n, rng):
    """A real stage 1 in Z^n, with a lattice of random rank."""
    gens = [{"type": "translation", "v": [rng.randint(-13, 13) for _ in range(n)]}
            for _ in range(rng.randint(0, n))]
    if n > 1:
        gens.append({"type": "permutation", "perm": [1, 0] + list(range(2, n))})
    gens.append({"type": "negation", "signs": [-1] + [1] * (n - 1)})
    return run_stage1(parse_generators(json.dumps({"n": n, "generators": gens})))


def random_groups(rng, n, span):
    """Random points in [-span, span]^n, cut into classes of 1 to 5."""
    points = {tuple(rng.randint(-span, span) for _ in range(n))
              for _ in range(rng.randint(1, 60))}
    pts = sorted(points)
    rng.shuffle(pts)
    groups, i = [], 0
    while i < len(pts):
        k = rng.randint(1, 5)
        groups.append(pts[i:i + k])
        i += k
    return groups


def test_render_json_matches_json_dumps_on_random_labelings():
    rng = Random(4242)
    for trial in range(120):
        n = 1 + trial % 6
        stage1 = stage1_for(n, rng)
        labeling = labeling_of(random_groups(rng, n, rng.choice((3, 40, 2500))))
        assert render_json(stage1, labeling) == dumps_reference(stage1, labeling)


def test_render_json_matches_json_dumps_on_real_labelings():
    rng = Random(4243)
    for n in range(1, 7):
        stage1 = stage1_for(n, rng)
        points = {tuple(rng.randint(-12, 12) for _ in range(n)) for _ in range(80)}
        labeling = compute_labeling(stage1, points)
        assert render_json(stage1, labeling) == dumps_reference(stage1, labeling)


def test_render_json_empty_domain():
    stage1 = run_stage1(validate_atomic([], 3))
    labeling = labeling_of([])
    text = render_json(stage1, labeling)
    assert text == dumps_reference(stage1, labeling)
    assert '"classes": []' in text and '"basis_rows": []' in text


def test_render_json_single_class():
    stage1 = stage1_for(2, Random(7))
    for groups in ([[(0, 0)]], [[(-10, 3), (4, -112), (0, 0)]]):
        labeling = labeling_of(groups)
        assert render_json(stage1, labeling) == dumps_reference(stage1, labeling)



def test_render_tsv_matches_line_by_line_on_random_labelings():
    rng = Random(4244)
    for trial in range(120):
        n = 1 + trial % 6
        labeling = labeling_of(random_groups(rng, n, rng.choice((3, 40, 2500, 2 ** 70))))
        assert render_tsv(labeling) == line_by_line_render_tsv(labeling)


def test_render_tsv_matches_line_by_line_on_real_labelings():
    rng = Random(4245)
    for n in range(1, 7):
        stage1 = stage1_for(n, rng)
        points = {tuple(rng.randint(-12, 12) for _ in range(n)) for _ in range(80)}
        labeling = compute_labeling(stage1, points)
        assert render_tsv(labeling) == line_by_line_render_tsv(labeling)


def test_render_tsv_empty_singletons_and_z0():
    assert render_tsv(labeling_of([])) == ""
    for groups in ([[(0, 0)]], [[(-10, 3)], [(4, -112)], [(0, 0)]],
                   [[(-2 ** 70, 2 ** 70), (5, -1)]], [[()]]):
        labeling = labeling_of(groups)
        assert render_tsv(labeling) == line_by_line_render_tsv(labeling)
    assert render_tsv(labeling_of([[()]])) == "\t\n"

CRIT8_GENS = {"n": 6, "generators": [
    {"type": "translation", "v": [2, 0, 0, 0, 0, 0]},
    {"type": "translation", "v": [0, 2, 0, 0, 0, 0]},
    {"type": "translation", "v": [0, 0, 2, 0, 0, 0]},
    {"type": "negation", "signs": [-1, 1, 1, 1, 1, 1]},
    {"type": "permutation", "perm": [1, 0, 2, 3, 4, 5]},
    {"type": "permutation", "perm": [1, 2, 3, 4, 5, 0]}]}
CHORDS4_GENS = {"n": 4, "generators": [
    {"type": "translation", "v": [12, 0, 0, 0]},
    {"type": "translation", "v": [1, 1, 1, 1]},
    {"type": "negation", "signs": [-1, -1, -1, -1]},
    {"type": "permutation", "perm": [1, 0, 2, 3]},
    {"type": "permutation", "perm": [1, 2, 3, 0]}]}
SCATTER4_GENS = {"n": 4, "generators": [
    {"type": "translation", "v": [0, 1, 1, 0]},
    {"type": "negation", "signs": [-1, 1, 1, 1]},
    {"type": "permutation", "perm": [0, 1, 3, 2]}]}
SCATTER4_POINTS = [[i % 7 - 3, (5 * i) % 11 - 5, (3 * i) % 9 - 4, (7 * i) % 13 - 6]
                   for i in range(400)]

# sha256 of the CLI output, recorded while points were still reduced by the
# rational pseudoinverse and the whole document was written by json.dumps
GOLDEN = [
    ("crit8", CRIT8_GENS, ["--box=0..3,0..2,0..2,0..1,0..1,0..0"], "json",
     "ecdcf2daddf8643aef1af7be2c4befbb5659d3878ccdb6ed191ecb877698f00d"),
    ("crit8", CRIT8_GENS, ["--box=0..3,0..2,0..2,0..1,0..1,0..0"], "tsv",
     "356aaaaaf6a65c2cd0ad0032b86bb885033ea5b19cd7489dc869d163f42f24f9"),
    ("chords4", CHORDS4_GENS, ["--box=-2..5,0..5,0..5,0..5"], "json",
     "3b51918066fffb7dffc9f0bfb35ddd296063434de81f11486d1c409fb3f90f9d"),
    ("chords4", CHORDS4_GENS, ["--box=-2..5,0..5,0..5,0..5"], "tsv",
     "d442749712e4b1db38045a486c4ad2b82002944d7f7259f224b47efc4de4ec62"),
    ("scatter4", SCATTER4_GENS, ["--domain", None], "json",
     "20d61500fe9939101c73886a1b3f690aa7a448fa7d1444bbc494a431113c40d4"),
    ("scatter4", SCATTER4_GENS, ["--domain", None], "tsv",
     "4db293cc2c5f590985d3a3c5d222f4ca1d923423547098348df1ef5e95dd7b22"),
]


@pytest.mark.parametrize("name,gens_doc,domain,fmt,digest", GOLDEN,
                         ids=[f"{g[0]}-{g[3]}" for g in GOLDEN])
def test_cli_output_matches_golden_hash(tmp_path, name, gens_doc, domain, fmt, digest):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(gens_doc), encoding="utf-8")
    if domain == ["--domain", None]:
        dom = tmp_path / "domain.json"
        dom.write_text(json.dumps({"points": SCATTER4_POINTS}), encoding="utf-8")
        domain = ["--domain", str(dom)]
    out = tmp_path / "out"
    assert main(["--gens", str(gens), *domain, "--format", fmt,
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_shuffled_points_file_with_duplicates_gives_the_same_bytes(tmp_path, fmt):
    # points go to the library in file order, duplicates included; the
    # output must not depend on either
    rng = Random(3)
    points = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(1500)]
    shuffled = points + rng.sample(points, 500)
    rng.shuffle(shuffled)
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(SCATTER4_GENS), encoding="utf-8")
    outputs = []
    for name, pts in [("shuffled", shuffled), ("sorted", sorted(set(map(tuple, points))))]:
        dom = tmp_path / f"{name}.json"
        dom.write_text(json.dumps({"points": [list(p) for p in pts]}), encoding="utf-8")
        out = tmp_path / f"{name}.out"
        assert main(["--gens", str(gens), "--domain", str(dom), "--format", fmt,
                     "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
