"""Named mutants of the library, each of which some test must kill.

Usage, from the repository root:

    python3 scripts/mutants.py [name ...]

Each mutant is a source file under `src/`, an exact text in it, the text
that replaces it, and the tests that must fail once it is replaced. A
mutant is applied to a copy of `src/` in a temporary directory, never to
the checkout, and only its tests run, against that copy. The script
exits 1 if a mutant survives (its tests all pass), or if its text no
longer occurs exactly once in its file: code that moves takes its mutant
with it. With names, only those mutants run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/corpuscausal
    text: str
    replacement: str
    tests: tuple  # pytest ids, from the repository root


MUTANTS = (
    Mutant(
        "pruning ignores word characters beside a slot",
        "corpus.py",
        "return bool(mid) and not any(map(_WORD_RE.match, (head[-1:], mid[:1], mid[-1:], tail[:1])))",
        "return bool(mid)",
        ("tests/test_population.py::TestPrunedProbes::test_pruned_stored_equals_the_unpruned_probe",),
    ),
    Mutant(
        "a blank subject pruned",
        "corpus.py",
        "pruned = filled_s[s] & apart[t] & filled_o[o]",
        "pruned = apart[t] & filled_o[o]",
        ("tests/test_population.py::TestPrunedProbes::test_pruned_stored_equals_the_unpruned_probe",),
    ),
    Mutant(
        "outside query subjects left out of the heuristic view",
        "predictions.py",
        "    subjects += tuple(sorted({subject for subject, _, _ in keys}.difference(subjects)))\n",
        "",
        ("tests/test_predictions.py::TestBaselines::test_heuristic_utt_equals_the_per_candidate_scan",
         "tests/test_predictions.py::TestBaselines::test_heuristic_argmax_equals_the_per_query_form"),
    ),
    Mutant(
        "ids read for another table reused",
        "population.py",
        "if table is not self:",
        "if table is None:",
        ("tests/test_population.py::TestScoringOracle::"
         "test_a_set_scored_through_two_tables_gets_each_tables_own",),
    ),
    Mutant(
        "kb.objects_of scans the triplets",
        "kb.py",
        "return self._objects.get((subject, relation), ())",
        "return tuple(sorted({t.object for t in filter(\n"
        "            lambda t: (t.subject, t.relation) == (subject, relation), self.triplets)}))",
        ("tests/test_pipeline.py::TestScaling::"
         "test_warm_dynamics_call_counts_grow_at_most_linearly_in_subjects",),
    ),
    Mutant(
        "prediction cells left unchecked",
        "population.py",
        "if _holds_break(chain(strings, distinct)):",
        "if _holds_break(strings):",
        ("tests/test_pipeline.py::TestEmissionOracle::"
         "test_a_break_is_refused_as_the_reference_refuses_it",),
    ),
    Mutant(
        "plain np.unique",
        "population.py",
        "present = np.flatnonzero(np.bincount(index, minlength=len(labels)))",
        "present = np.unique(index)",
        ("tests/test_pipeline.py::TestNoImportsDuringARun",),
    ),
    Mutant(
        "utt triplets filtered through kb.objects_of per subject",
        "population.py",
        "        triplets.setdefault(trip.relation, []).append(trip)",
        "        golds = [o for s in kb.subjects(trip.relation) for o in kb.objects_of(s, trip.relation)]\n"
        "        if trip.object in golds:\n"
        "            triplets.setdefault(trip.relation, []).append(trip)",
        ("tests/test_pipeline.py::TestScaling::test_call_counts_grow_at_most_linearly",),
    ),
    Mutant(
        "the lcm of the first four strata",
        "estimator.py",
        "common = lcm(*(rows for _, rows, _ in supported))",
        "common = lcm(*(rows for _, rows, _ in supported[:4]))",
        ("tests/test_estimator.py::TestCellCore::test_core_equals_oracle_on_empirical_joint",),
    ),
    Mutant(
        "the last pair dropped on read",
        "population.py",
        "pairs = tuple(pair for _, pair in numbered)",
        "pairs = tuple(pair for _, pair in numbered)[:-1]",
        ("tests/test_population.py::TestEmission::test_write_read_round_trip",),
    ),
)


def run(mutant, src):
    """Whether `mutant`, applied to the copy `src` of `src/`, is killed; raises if it cannot apply."""
    path = src / "corpuscausal" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.text) != 1:
        raise LookupError(f"{mutant.path} holds {mutant.text!r} {text.count(mutant.text)} times")
    path.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    origin = subprocess.run(
        [sys.executable, "-c", "import corpuscausal; print(corpuscausal.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(origin).is_relative_to(src):
        raise RuntimeError(f"the tests would import corpuscausal from {origin}, not {src}")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else: they did not run
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 1


def main(names):
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            try:
                verdict = "killed" if run(mutant, src) else "SURVIVED"
            except (LookupError, RuntimeError) as exc:
                verdict = f"NOT RUN: {exc}"
        failed += verdict != "killed"
        print(f"{verdict:>8}  {mutant.name}", flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
