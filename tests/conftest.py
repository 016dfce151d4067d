"""Shared fixtures: small KBs, corpora, and prediction files on disk."""

import importlib.util
import json
from hashlib import blake2b
from pathlib import Path

import numpy as np
import pytest

from corpuscausal.kb import KnowledgeBase, PatternSpec, Triplet

CROSSED_TRIPLETS = [
    ("Paris", "capital-of", "France"),
    ("Rome", "capital-of", "Italy"),
    ("Daria", "aired-on", "MTV"),
    ("True Detective", "aired-on", "HBO"),
]

CROSSED_PATTERNS = [
    ("capital-of", "[X] is the capital of [Y].", False),
    ("capital-of", "The capital city [X] lies in [Y].", False),
    ("capital-of", "[X] is not the capital of [Y].", True),
    ("aired-on", "[X] debuted on [Y].", False),
    ("aired-on", "[Y] released [X].", False),
    ("aired-on", "[X] was sold to [Y].", True),
]


def crossed_corpus_lines():
    """Corpus for the 4-triplet fixture.

    Per relation, each triplet's utterance is stored under a different
    paraphrase (so treated/control strata share support), and every
    subject's most co-occurring candidate is a non-gold object (so the
    utt-heuristic fallback misses on control rows).
    """
    lines = [
        "Paris is the capital of France.",
        "The capital city Rome lies in Italy.",
        "Daria debuted on MTV.",
        "HBO released True Detective.",
    ]
    lines += [f"Paris went to Italy {i}." for i in range(4)]
    lines += [f"Paris saw France {i}." for i in range(2)]
    lines += [f"Rome admires France {i}." for i in range(4)]
    lines += [f"Rome sits in Italy {i}." for i in range(2)]
    lines += [f"Daria mentioned HBO {i}." for i in range(4)]
    lines += [f"Daria likes MTV {i}." for i in range(2)]
    lines += [f"True Detective teased MTV {i}." for i in range(4)]
    lines += [f"True Detective ran on HBO {i}." for i in range(2)]
    lines += [f"Show{i} debuted on MTV." for i in range(6)]
    lines += [f"Other{i} debuted on HBO." for i in range(6)]
    return lines


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_generator():
    """The benchmark's seeded input generator, which never calls the library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: A population-cache entry's columns, in file order after its header line:
#: `<i4` string codes and counts, the pairs' `<i4` treated and control rows,
#: then `u1` flags.
ENTRY_INTS = ("subject", "object", "relation", "template", "soc_count", "soc_bin")
ENTRY_FLAGS = ("is_anti", "treatment", "utt_present", "so_hc", "po_hc")


def decode_entry(data):
    """The (magic, header, columns) of a cache entry's bytes; columns are lists by name."""
    head, _, rest = data[24:].partition(b"\n")
    header = json.loads(head)
    n, m = header["rows"], header["pairs"]
    ints = np.frombuffer(rest, "<i4", 6 * n + 2 * m).tolist()
    spans = [(name, n) for name in ENTRY_INTS] + [("treated", m), ("control", m)]
    values = ints + list(rest[len(ints) * 4 :])
    columns = {}
    for name, size in spans + [(name, n) for name in ENTRY_FLAGS]:
        columns[name], values = values[:size], values[size:]
    return data[:8], header, columns


def encode_entry(magic, header, columns):
    """Entry bytes from `decode_entry`'s parts, with a digest of the new body."""
    body = json.dumps(header, separators=(",", ":")).encode() + b"\n"
    for name in ENTRY_INTS + ("treated", "control"):
        body += np.array(columns[name], "<i4").tobytes()
    for name in ENTRY_FLAGS:
        body += bytes(columns[name])
    return magic + blake2b(body, digest_size=16).digest() + body


def write_kb_files(directory, triplets, patterns):
    kb_path = directory / "kb.jsonl"
    pattern_path = directory / "patterns.jsonl"
    write_jsonl(
        kb_path,
        [{"subject": s, "relation": r, "object": o} for s, r, o in triplets],
    )
    write_jsonl(
        pattern_path,
        [
            {"relation": r, "template": t, "is_anti": anti}
            for r, t, anti in patterns
        ],
    )
    return kb_path, pattern_path


def write_corpus(directory, lines, name="corpus.txt"):
    path = directory / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


WORKS_TRIPLETS = [
    ("Alice", "works-at", "Nordbank"),
    ("Bob", "works-at", "Postfirm"),
    ("Cara", "works-at", "Dextro"),
    ("Cara", "works-at", "Archa"),
    ("Dan", "works-at", "Enerco"),
    ("Dan", "works-at", "Armox"),
]

WORKS_PATTERNS = [
    ("works-at", "[X] works at [Y].", False),
    ("works-at", "[X] is employed by [Y].", False),
    ("works-at", "[X] sued [Y].", True),
]


def works_corpus_lines():
    """Corpus where no subject's predicted gold touches a heuristic object.

    Every subject co-occurs most with Dextro (argmax) then Enerco
    (runner-up); the lexicographically first gold of each subject (what
    the perfect baseline predicts) is never one of those two. Utterances
    are stored crosswise over the two paraphrases, one per triplet.
    """
    lines = [
        "Alice works at Nordbank.",
        "Bob is employed by Postfirm.",
        "Cara works at Dextro.",
        "Cara is employed by Archa.",
        "Dan works at Enerco.",
        "Dan is employed by Armox.",
    ]
    for subject in ("Alice", "Bob", "Cara", "Dan"):
        lines += [f"{subject} filed papers near Dextro {i}." for i in range(5)]
        lines += [f"{subject} toured Enerco {i}." for i in range(3)]
    for subject, gold in [
        ("Alice", "Nordbank"),
        ("Bob", "Postfirm"),
        ("Cara", "Archa"),
        ("Dan", "Armox"),
    ]:
        lines.append(f"{subject} visited {gold} once.")
    lines += [f"Temp{i} works at Dextro." for i in range(7)]
    lines += [f"Temp{i} works at Enerco." for i in range(6)]
    return lines


@pytest.fixture
def works_files(tmp_path):
    """Files for the no-coincidence fixture (perfect baseline lands at 0)."""
    kb_path, pattern_path = write_kb_files(tmp_path, WORKS_TRIPLETS, WORKS_PATTERNS)
    corpus_path = write_corpus(tmp_path, works_corpus_lines())
    return {
        "dir": tmp_path,
        "kb": kb_path,
        "patterns": pattern_path,
        "corpus": corpus_path,
    }


@pytest.fixture
def crossed_kb():
    return KnowledgeBase(
        triplets=tuple(Triplet(*t) for t in CROSSED_TRIPLETS),
        patterns=tuple(PatternSpec(*p) for p in CROSSED_PATTERNS),
    )


@pytest.fixture
def crossed_files(tmp_path):
    """KB, pattern, and corpus files for the crossed 4-triplet fixture."""
    kb_path, pattern_path = write_kb_files(
        tmp_path, CROSSED_TRIPLETS, CROSSED_PATTERNS
    )
    corpus_path = write_corpus(tmp_path, crossed_corpus_lines())
    return {
        "dir": tmp_path,
        "kb": kb_path,
        "patterns": pattern_path,
        "corpus": corpus_path,
    }
