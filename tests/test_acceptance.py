"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[PASS] criterion N`` line (visible with
``pytest -s tests/test_acceptance.py``); a failure keeps the line out.
"""

import itertools
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from corpuscausal.corpus import bin_count, build_index, ranked_columns, ranked_objects
from corpuscausal.estimator import (
    ObservationTable,
    ate,
    exact_joint_do,
    interventional_prob,
)
from corpuscausal.graph import build_graph, is_d_separated
from corpuscausal.kb import KnowledgeBase, PatternSpec, Triplet
from corpuscausal.pipeline import RunConfig, run_estimate
from corpuscausal.population import build_table, population_observation_table
from corpuscausal.predictions import PredictionSet
from corpuscausal.errors import PositivityError

import golden_fixture
from corpuscausal.population import write_population

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


# --- criterion 1: d-separation against exhaustive path enumeration ----------


def _oracle_machinery(names, edges):
    """Independent blocking oracle built straight from the edge list."""
    n = len(names)
    idx = {v: i for i, v in enumerate(names)}
    parent_mask = [0] * n
    child_mask = [0] * n
    eset = set()
    for a, b in edges:
        ia, ib = idx[a], idx[b]
        parent_mask[ib] |= 1 << ia
        child_mask[ia] |= 1 << ib
        eset.add((ia, ib))
    desc = [1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = desc[i]
            cm = child_mask[i]
            j = 0
            while cm:
                if cm & 1:
                    m |= desc[j]
                cm >>= 1
                j += 1
            if m != desc[i]:
                desc[i] = m
                changed = True
    neighbor = [parent_mask[i] | child_mask[i] for i in range(n)]

    def compiled_paths(x, y):
        out = []
        stack = [(x, (x,), 1 << x)]
        while stack:
            node, path, seen = stack.pop()
            if node == y:
                nc = 0
                coll = []
                for k in range(1, len(path) - 1):
                    a, b, c = path[k - 1], path[k], path[k + 1]
                    if (a, b) in eset and (c, b) in eset:
                        coll.append(desc[b])
                    else:
                        nc |= 1 << b
                out.append((nc, tuple(coll)))
                continue
            m = neighbor[node] & ~seen
            j = 0
            while m:
                if m & 1:
                    stack.append((j, path + (j,), seen | (1 << j)))
                m >>= 1
                j += 1
        return out

    return compiled_paths


def test_criterion_1_dsep_matches_bruteforce_on_random_dags():
    rng = random.Random(1729)
    started = time.perf_counter()
    queries = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        names = tuple(f"n{i}" for i in range(n))
        density = rng.uniform(0.1, 0.6)
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        g = build_graph(names, edges)
        compiled = _oracle_machinery(names, edges)
        for xi, yi in itertools.combinations(range(n), 2):
            paths = compiled(xi, yi)
            others = [k for k in range(n) if k not in (xi, yi)]
            for r in range(len(others) + 1):
                for zs in itertools.combinations(others, r):
                    zmask = 0
                    for k in zs:
                        zmask |= 1 << k
                    active = any(
                        (nc & zmask) == 0 and all(cd & zmask for cd in coll)
                        for nc, coll in paths
                    )
                    got = is_d_separated(
                        g, names[xi], names[yi], {names[k] for k in zs}
                    )
                    assert got == (not active), (edges, xi, yi, zs)
                    queries += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(1, f"d-separation == path enumeration on 1000 DAGs, "
               f"{queries} queries, {elapsed:.2f}s < 10s")


# --- criterion 2: estimator equals the exact-joint oracle -------------------


def test_criterion_2_backdoor_estimator_exactness():
    rng = random.Random(271828)
    checked = 0
    while checked < 200:
        k = rng.randint(0, 4)
        n_rows = rng.randint(10, 1000)
        columns = ("X",) + tuple(f"Z{i}" for i in range(k)) + ("Y",)
        rows = [
            tuple(rng.randint(0, 1) for _ in columns) for _ in range(n_rows)
        ]
        table = ObservationTable.from_rows(columns, rows)
        joint = {}
        for row in rows:
            joint[row] = joint.get(row, Fraction(0)) + Fraction(1, n_rows)
        z = {f"Z{i}" for i in range(k)}
        oracle = exact_joint_do(joint, columns, "X", "Y", z)
        try:
            est = interventional_prob(table, "X", "Y", z)
        except PositivityError:
            assert oracle.covered_mass == 0
            continue
        assert est.p_outcome_given_do == oracle.p_outcome_given_do  # exact Fractions
        assert est.covered_mass == oracle.covered_mass
        checked += 1
    _report(2, "interventional_prob == exact_joint_do exactly on 200 random tables")


# --- criteria 3 and 4: control baselines through the full pipeline ----------


def _config(files, predictions):
    return RunConfig(
        kb=str(files["kb"]),
        patterns=str(files["patterns"]),
        corpus=str(files["corpus"]),
        predictions=predictions,
        output_dir=str(files["dir"] / "out"),
    )


def test_criterion_3_heuristic_controls_reproduce_hundred(crossed_files, works_files):
    for files in (crossed_files, works_files):
        report = run_estimate(_config(files, "baseline:heuristic"))
        for hyp in ("utt", "poc", "soc"):
            assert report.ate[hyp] == 100.0
            assert f"{report.ate[hyp]:.2f}" == "100.00"

    # floor case: a single matched pair still scores exactly 100
    kb = KnowledgeBase(
        triplets=(Triplet("solo", "rel", "A"), Triplet("solo", "rel", "B")),
        patterns=(PatternSpec("rel", "[X] links [Y]."),),
    )
    idx = build_index(
        [f"solo met A {i}." for i in range(3)] + [f"solo met B {i}." for i in range(2)]
    )
    preds = PredictionSet(
        records={
            ("solo", "rel", "[X] links [Y]."): "A"
        },
        source_id="heuristic-soc",
    )
    pop = build_table("soc", kb, idx, preds)
    assert len(pop.pairs) == 1
    assert ate(population_observation_table(pop), "treatment", "outcome", ("soc_bin",)) == 100
    _report(3, "each heuristic baseline lands at ATE = 100.00 exactly "
               "(two pipelines + single-pair floor case)")


def test_criterion_4_perfect_control_is_exactly_zero(works_files):
    report = run_estimate(_config(works_files, "baseline:perfect"))
    assert report.ate == {"utt": 0.0, "poc": 0.0, "soc": 0.0}
    _report(4, "perfect baseline yields ATE = 0 exactly for all three hypotheses")


# --- criterion 5: planted-effect recovery ------------------------------------


def _planted_fixture(n_relations=500, n_subjects=4):
    paraphrases = ["[X] visited [Y].", "[X] praised [Y].", "[X] quoted [Y]."]
    antis = ["[X] ignored [Y].", "[X] sold [Y]."]
    triplets = []
    patterns = []
    lines = []
    for k in range(n_relations):
        rel = f"r{k:03d}"
        golds = [f"o{k}_{i}" for i in range(n_subjects)]
        for i in range(n_subjects):
            subj = f"s{k}_{i}"
            triplets.append(Triplet(subj, rel, golds[i]))
            top = golds[(i + 1) % n_subjects]
            runner = golds[(i + 2) % n_subjects]
            lines += [f"{subj} met {top} {j}." for j in range(5)]
            lines += [f"{subj} met {runner} {j}." for j in range(3)]
        patterns += [PatternSpec(rel, t, False) for t in paraphrases]
        patterns += [PatternSpec(rel, t, True) for t in antis]
    kb = KnowledgeBase(triplets=tuple(triplets), patterns=tuple(patterns))
    return kb, build_index(lines), paraphrases + antis


def _planted_predictions(kb, idx, templates, seed, follow_treated=0.7):
    import hashlib

    records = {}
    for rel in kb.relations:
        candidates = kb.candidate_objects(rel)
        for subj in kb.subjects(rel):
            ranked = ranked_objects({o: idx.soc_count(subj, o) for o in candidates})
            top, runner = ranked[0], ranked[1]
            for template in templates:
                payload = f"{seed}\x1f{subj}\x1f{rel}\x1f{template}".encode("utf-8")
                u = (
                    int.from_bytes(
                        hashlib.blake2b(payload, digest_size=8).digest(), "big"
                    )
                    / 2**64
                )
                predicted = top if u < follow_treated else runner
                records[(subj, rel, template)] = predicted
    return PredictionSet(records=records, source_id=f"planted:{seed}")


def test_criterion_5_planted_effect_recovery():
    started = time.perf_counter()
    kb, idx, templates = _planted_fixture()
    preds = _planted_predictions(kb, idx, templates, seed=3)
    pop = build_table("soc", kb, idx, preds)
    assert len(pop.pairs) == 10000
    value = float(
        ate(population_observation_table(pop), "treatment", "outcome", ("soc_bin",))
    )
    elapsed = time.perf_counter() - started
    assert abs(value - 40.0) <= 2.0, f"soc ATE {value:.3f} outside 40 +/- 2"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(5, f"planted 0.7/0.3 predictions over 10000 pairs -> "
               f"soc ATE {value:.2f} in 40 +/- 2, {elapsed:.1f}s < 30s")


def test_random_baseline_sits_near_zero():
    # uniform candidate draws leave both arms at the same hit rate
    from corpuscausal.predictions import baseline_predict

    kb, idx, templates = _planted_fixture(n_relations=200, n_subjects=4)
    keys = [
        (s, rel, t)
        for rel in kb.relations
        for s in kb.subjects(rel)
        for t in templates
    ]
    preds = baseline_predict("random", kb, stats=idx, queries=keys, seed=11)
    pop = build_table("soc", kb, idx, preds)
    value = float(
        ate(population_observation_table(pop), "treatment", "outcome", ("soc_bin",))
    )
    assert abs(value) <= 2.5, value


# --- criterion 6: co-occurrence counting against a quadratic scan ------------


def _naive_soc(sentences, a, b):
    rx_a = re.compile(r"(?<!\w)" + re.escape(a) + r"(?!\w)")
    rx_b = re.compile(r"(?<!\w)" + re.escape(b) + r"(?!\w)")
    return sum(1 for s in sentences if rx_a.search(s) and rx_b.search(s))


def _naive_poc(sentences, template, obj):
    rx = re.compile(
        re.escape(template).replace(r"\[X\]", "(.+)").replace(r"\[Y\]", re.escape(obj))
    )
    return sum(1 for s in sentences if rx.fullmatch(s))


def test_criterion_6_cooccurrence_matches_quadratic_oracle():
    rng = random.Random(64)
    entities = [f"Ent{i}" for i in range(16)]
    verbs = ["met", "likes", "saw", "debuted on", "works at"]
    sentences = []
    for _ in range(1000):
        a, b = rng.sample(entities, 2)
        verb = rng.choice(verbs)
        if rng.random() < 0.2:
            c = rng.choice(entities)
            sentences.append(f"{a} {verb} {b} near {c}.")
        else:
            sentences.append(f"{a} {verb} {b}.")
    assert len(sentences) == 1000
    soc_oracle = {
        (a, b): _naive_soc(sentences, a, b) for a in entities for b in entities
    }
    templates = [f"[X] {verb} [Y]." for verb in verbs]
    poc_oracle = {
        (template, obj): _naive_poc(sentences, template, obj)
        for template in templates
        for obj in entities[:5]
    }

    def check_batched(index):
        # on a fresh index, so the batched calls do the counting themselves;
        # the matrix's columns are in text order, as a relation's candidates are
        objects = sorted(entities)
        matrix = index.soc_matrix(entities, objects)
        for a, row, ranking in zip(entities, matrix.tolist(), ranked_columns(matrix).tolist()):
            expected = {b: soc_oracle[a, b] for b in objects}
            assert dict(zip(objects, row)) == expected
            assert [objects[j] for j in ranking] == ranked_objects(expected)
        objects = sorted(entities[:5])
        matrix = index.poc_matrix(templates, objects)
        for template, row, ranking in zip(templates, matrix.tolist(),
                                          ranked_columns(matrix).tolist()):
            expected = {obj: poc_oracle[template, obj] for obj in objects}
            assert dict(zip(objects, row)) == expected
            assert [objects[j] for j in ranking] == ranked_objects(expected)

    check_batched(build_index(sentences))
    sequential = build_index(sentences)
    for a, b in itertools.combinations(entities, 2):
        assert sequential.soc_count(a, b) == soc_oracle[a, b]
    for (template, obj), expected in poc_oracle.items():
        assert sequential.poc_count(template, obj) == expected

    _report(6, "soc/poc counts, single and batched, == quadratic-scan oracle "
               "on 1000 sentences")


# --- criterion 7: binning ----------------------------------------------------


def test_criterion_7_binning_table():
    expected = {
        0: "XS",
        1: "XS",
        2: "S",
        10: "S",
        11: "M",
        100: "M",
        101: "L",
        1000: "L",
        1001: "XL",
    }
    for n, label in expected.items():
        assert bin_count(n) == label, n
    for n, label in [(116, "L"), (7147, "XL"), (112, "L"), (3042, "XL")]:
        assert bin_count(n) == label, n
    _report(7, "bin boundaries and reference counts map exactly")


# --- criterion 8: population fidelity against golden files -------------------


def test_criterion_8_population_fidelity(tmp_path):
    kb = golden_fixture.knowledge_base()
    idx = golden_fixture.corpus_index()
    preds = golden_fixture.predictions(kb)
    for hyp in ("utt", "poc", "soc"):
        pop = build_table(hyp, kb, idx, preds)
        table_path = tmp_path / f"{hyp}_population.tsv"
        pairs_path = tmp_path / f"{hyp}_pairs.tsv"
        write_population(pop, table_path, pairs_path)
        golden_table = (GOLDEN_DIR / f"{hyp}_population.tsv").read_text(encoding="utf-8")
        golden_pairs = (GOLDEN_DIR / f"{hyp}_pairs.tsv").read_text(encoding="utf-8")
        emitted_table = table_path.read_text(encoding="utf-8")
        emitted_pairs = pairs_path.read_text(encoding="utf-8")
        assert emitted_table.splitlines() == golden_table.splitlines(), hyp
        assert emitted_pairs.splitlines() == golden_pairs.splitlines(), hyp
    _report(8, "utt/poc/soc tables and pair files match the golden fixture "
               "row-for-row (10-triplet KB, frequency floor included)")


# --- criterion 9: byte-identical reports across processes --------------------


def test_criterion_9_estimate_determinism(works_files):
    config_path = works_files["dir"] / "run.cfg"
    outputs = []
    for name in ("run_a", "run_b"):
        out_dir = works_files["dir"] / name
        config_path.write_text(
            f"kb = {works_files['kb']}\n"
            f"patterns = {works_files['patterns']}\n"
            f"corpus = {works_files['corpus']}\n"
            "predictions = baseline:heuristic\n"
            f"output-dir = {out_dir}\n"
            "output-format = structured\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "corpuscausal.cli", "estimate", "--config", str(config_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "report.json").read_bytes())
    assert outputs[0] == outputs[1]
    _report(9, "two estimate runs in separate processes emit byte-identical "
               "structured reports")
