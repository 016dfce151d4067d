"""The 10-triplet fixture behind the golden population files.

Counts are small and hand-checkable: every subject co-occurs 4 times
with a non-gold distractor and 3 times with its gold object (2 pump
sentences plus the stored utterance, or 3 pump sentences for the two
subjects without one); the debut pattern carries MTV at count 7 and NBC
at 6 so the pattern-object filter keeps exactly that template.
"""

from corpuscausal.corpus import build_index
from corpuscausal.kb import KnowledgeBase, PatternSpec, Triplet
from corpuscausal.predictions import PredictionSet

TRIPLETS = [
    ("Paris", "capital-of", "France"),
    ("Rome", "capital-of", "Italy"),
    ("Berlin", "capital-of", "Germany"),
    ("Madrid", "capital-of", "Spain"),
    ("Daria", "aired-on", "MTV"),
    ("True Detective", "aired-on", "HBO"),
    ("Archer", "aired-on", "FX"),
    ("Dexter", "aired-on", "Showtime"),
    ("Friends", "aired-on", "NBC"),
    ("Cheers", "aired-on", "NBC"),
]

PATTERNS = [
    ("capital-of", "[X] is the capital of [Y].", False),
    ("capital-of", "The capital city [X] lies in [Y].", False),
    ("capital-of", "[X] is not the capital of [Y].", True),
    ("aired-on", "[X] debuted on [Y].", False),
    ("aired-on", "[Y] released [X].", False),
    ("aired-on", "[X] was sold to [Y].", True),
]

SOC_PUMP = [
    ("Paris", "Italy", 4),
    ("Paris", "France", 2),
    ("Rome", "France", 4),
    ("Rome", "Italy", 2),
    ("Berlin", "Spain", 4),
    ("Berlin", "Germany", 2),
    ("Madrid", "Germany", 4),
    ("Madrid", "Spain", 2),
    ("Daria", "HBO", 4),
    ("Daria", "MTV", 2),
    ("True Detective", "MTV", 4),
    ("True Detective", "HBO", 2),
    ("Archer", "NBC", 4),
    ("Archer", "FX", 2),
    ("Dexter", "FX", 4),
    ("Dexter", "Showtime", 2),
    ("Friends", "Showtime", 4),
    ("Friends", "NBC", 3),
    ("Cheers", "MTV", 4),
    ("Cheers", "NBC", 3),
]


def corpus_lines():
    lines = [
        "Paris is the capital of France.",
        "The capital city Rome lies in Italy.",
        "Berlin is the capital of Germany.",
        "The capital city Madrid lies in Spain.",
        "Daria debuted on MTV.",
        "HBO released True Detective.",
        "Archer debuted on FX.",
        "Showtime released Dexter.",
    ]
    for subj, obj, n in SOC_PUMP:
        lines += [f"{subj} mentioned {obj} take {i}." for i in range(n)]
    lines += [f"Show{i} debuted on MTV." for i in range(6)]
    lines += [f"Prog{i} debuted on NBC." for i in range(6)]
    return lines


def knowledge_base():
    return KnowledgeBase(
        triplets=tuple(Triplet(*t) for t in TRIPLETS),
        patterns=tuple(PatternSpec(*p) for p in PATTERNS),
    )


def corpus_index():
    return build_index(corpus_lines())


def predictions(kb):
    """Gold answers for capital-of subjects, MTV for every aired-on cloze."""
    records = {}
    for rel in kb.relations:
        for s in kb.subjects(rel):
            for p in kb.patterns:
                if p.relation != rel:
                    continue
                predicted = kb.objects_of(s, rel)[0] if rel == "capital-of" else "MTV"
                key = (s, rel, p.template)
                records[key] = predicted
    return PredictionSet(records=records, source_id="golden-model")
