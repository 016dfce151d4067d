"""Seeded synthetic inputs: KB, patterns, corpus, prediction files, tally.

The generator never calls the library. It writes every input file from
`random.Random(seed)` alone, so a seed reproduces the same bytes, and it
keeps its own tally of planted subject-object co-mentions, from which it
derives the soc argmax that prediction files follow.

Rules that keep every population estimable (positivity):
  - subject co-mention volume is Zipf-skewed over subject rank, so the soc
    top and runner-up counts of different subjects share count bins;
  - each triplet stores its utterance under only 1-2 of its paraphrases,
    so every utt triplet keeps absent paraphrases as controls;
  - poc sentences instantiate templates with distractor subjects outside
    the KB, so they feed pattern-object counts without touching the tally.

Entity names are single capitalised tokens with a class prefix, template
keywords and filler words are lowercase, so no surface string can match
inside another and no non-template sentence can match a template.
"""

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

_SYLLABLES = (
    "ka", "lo", "mi", "ra", "ve", "to", "nu", "si", "be", "do",
    "fa", "gu", "he", "ji", "ko", "la", "mo", "ne", "pu", "ri",
)

#: Template shapes: 4 paraphrases then 1 anti-pattern; `{k}` is a keyword
#: unique to (relation, shape), so no template matches another's sentences.
_PARAPHRASES = (
    "[X] was {k} in [Y].",
    "[X] is the {k} of [Y].",
    "[Y] {k} [X] for years.",
    "Many say that [X] {k} with [Y].",
)
_ANTI = "[X] never {k} to [Y]."

#: Common words shared by filler text and template literals (long postings).
_COMMON = ("the", "was", "in", "is", "of", "with", "to", "for", "that", "and")


@dataclass(frozen=True)
class Sizes:
    relations: int
    subjects: int  # per relation
    candidates: int  # gold objects per relation
    sentences: int  # total corpus sentences
    comention_max: int  # co-mention sentences of the most frequent subject
    sentences_per_line: int = 1
    mention_share: float = 0.3  # filler sentences naming one entity
    checkpoints: tuple = ()  # planted soc-following shares, one file each


def _name(prefix, i, width=3):
    out = []
    for _ in range(width):
        i, d = divmod(i, len(_SYLLABLES))
        out.append(_SYLLABLES[d])
    return prefix + "".join(reversed(out))


def _unit(seed, *parts):
    """Order-independent uniform draw in [0, 1) keyed on seed and parts."""
    payload = "\x1f".join(map(str, (seed,) + parts)).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big") / 2**64


def instantiate(template, subject, obj):
    return template.replace("[X]", subject).replace("[Y]", obj)


def ranked(counts, candidates):
    """Candidates by descending tally, lexicographic within ties."""
    return sorted(candidates, key=lambda o: (-counts.get(o, 0), o))


class Corpus:
    """Generated inputs plus the generator's own co-mention tally."""

    def __init__(self, sizes, seed):
        self.sizes = sizes
        self.seed = seed
        rng = random.Random(seed)
        self.relations = [f"rel{r:02d}" for r in range(sizes.relations)]
        self.subjects = {}
        self.candidates = {}
        self.templates = {}
        self.triplets = []
        self.patterns = []
        sentences = []
        self.tally = {}
        nsub = sizes.subjects
        for r, rel in enumerate(self.relations):
            subs = [_name("Ba", r * nsub + i) for i in range(nsub)]
            objs = [_name("Do", r * sizes.candidates + j) for j in range(sizes.candidates)]
            self.subjects[rel] = subs
            self.candidates[rel] = objs
            shapes = _PARAPHRASES + (_ANTI,)
            temps = [s.format(k=_name("qu", r * len(shapes) + i).lower())
                     for i, s in enumerate(shapes)]
            self.templates[rel] = temps
            self.patterns += [(rel, t, i == len(temps) - 1) for i, t in enumerate(temps)]
            order = list(range(nsub))
            rng.shuffle(order)
            for rank, i in enumerate(order):
                s = subs[i]
                gold = objs[rank % len(objs)]
                self.triplets.append((s, rel, gold))
                # Utterance stored under 1 or 2 of the 4 paraphrases.
                for t in rng.sample(temps[:-1], rng.choice((1, 2))):
                    sentences.append(instantiate(t, s, gold))
                    self._count(s, gold)
                # Zipf co-mention volume by rank, split over a few objects.
                volume = max(1, round(sizes.comention_max / (rank + 1) ** 0.9))
                for share, o in zip((0.4, 0.25, 0.15, 0.1, 0.1), rng.sample(objs, 5)):
                    for _ in range(round(volume * share)):
                        w = rng.choice(_COMMON)
                        sentences.append(f"{s} and {o} met {w} crowd at dawn.")
                        self._count(s, o)
            # Pattern-object sentences with distractor subjects.
            for t in temps:
                for k, o in enumerate(rng.sample(objs, 3)):
                    n = (10, 7, 3)[k] + rng.randrange(4)
                    for _ in range(n):
                        d = _name("Gu", rng.randrange(20 * nsub), width=4)
                        sentences.append(instantiate(t, d, o))
        self.structured = len(sentences)
        if self.structured > sizes.sentences:
            raise ValueError(
                f"{self.structured} planted sentences exceed the corpus size "
                f"{sizes.sentences}"
            )
        sentences += self._fillers(rng, sizes.sentences - self.structured)
        rng.shuffle(sentences)
        step = sizes.sentences_per_line
        self.lines = [" ".join(sentences[i : i + step]) for i in range(0, len(sentences), step)]

    def _count(self, s, o):
        self.tally[(s, o)] = self.tally.get((s, o), 0) + 1

    def _fillers(self, rng, n):
        vocab = list(_COMMON) + [_name("", i).lower() for i in range(400, 2400)]
        cum, total = [], 0.0
        for i in range(len(vocab)):
            total += 1 / (i + 1)
            cum.append(total)
        entities = [s for rel in self.relations for s in self.subjects[rel]]
        entities += [o for rel in self.relations for o in self.candidates[rel]]
        out = []
        for _ in range(n):
            words = rng.choices(vocab, cum_weights=cum, k=rng.randrange(6, 14))
            if rng.random() < self.sizes.mention_share:
                words[rng.randrange(len(words))] = rng.choice(entities)
            out.append(" ".join(words) + ".")
        return out

    # --- derived from the tally, never from the library -----------------

    def soc_ranking(self, relation, subject):
        counts = {o: self.tally.get((subject, o), 0) for o in self.candidates[relation]}
        return ranked(counts, self.candidates[relation])

    def predictions(self, share, source_id):
        """Records following the soc argmax on a planted share of keys.

        Per subject, template j gets u = (phi_subject + j / T) mod 1 and
        follows iff u < share, so every subject follows on a share close
        to `share`; the others predict the subject's lowest-ranked
        candidate, which is neither the soc treated nor control object.
        """
        out = []
        for rel in self.relations:
            temps = self.templates[rel]
            for s in self.subjects[rel]:
                order = self.soc_ranking(rel, s)
                phi = _unit(self.seed, "follow", s)
                for j, t in enumerate(temps):
                    follow = (phi + j / len(temps)) % 1.0 < share
                    out.append({
                        "subject": s,
                        "relation": rel,
                        "template": t,
                        "prediction": order[0] if follow else order[-1],
                        "source_id": source_id,
                    })
        return out

    # --- files -----------------------------------------------------------

    def write(self, directory):
        """Write kb, patterns, corpus and checkpoint files; return their paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "kb": directory / "kb.jsonl",
            "patterns": directory / "patterns.jsonl",
            "corpus": directory / "corpus.txt",
        }
        _write_jsonl(paths["kb"], [
            {"subject": s, "relation": r, "object": o} for s, r, o in self.triplets
        ])
        _write_jsonl(paths["patterns"], [
            {"relation": r, "template": t, "is_anti": a} for r, t, a in self.patterns
        ])
        paths["corpus"].write_text("\n".join(self.lines) + "\n", encoding="utf-8")
        ckpt_dir = directory / "checkpoints"
        for k, share in enumerate(self.sizes.checkpoints):
            ckpt_dir.mkdir(exist_ok=True)
            path = ckpt_dir / f"step{k:02d}.jsonl"
            _write_jsonl(path, self.predictions(share, f"synthetic-step{k:02d}"))
            paths[f"checkpoint{k:02d}"] = path
        return paths

    def describe(self):
        return dict(asdict(self.sizes), seed=self.seed, triplets=len(self.triplets),
                    planted_sentences=self.structured)


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
