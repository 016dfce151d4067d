#!/usr/bin/env bash
# End-to-end checks of the `corpuscausal` console script found on PATH: index,
# stats, build-population, dynamics, report, estimate and the config-file
# settings, each checked by its exit status and its output files.
#
# Usage: scripts/check-console-script.sh
#
# Work files go under $RUNNER_TEMP when it is set; otherwise the script makes
# its own temporary directory and removes it on exit. The `python3` on PATH
# must import the same `corpuscausal` as the console script.
set -eo pipefail

if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp=$RUNNER_TEMP
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
fi

corpuscausal --help
printf 'Paris is the capital of France.\nRome is in Italy.\n' > "$tmp/corpus.txt"
corpuscausal index "$tmp/corpus.txt" -o "$tmp/corpus.idx" | tee "$tmp/index.out"
grep -q "indexed 2 sentences" "$tmp/index.out"
# read the saved index back through the installed entry point
printf '%s\n' '{"subject": "Paris", "relation": "capital-of", "object": "France"}' \
  '{"subject": "Rome", "relation": "capital-of", "object": "Italy"}' > "$tmp/kb.jsonl"
printf '%s\n' '{"relation": "capital-of", "template": "[X] is the capital of [Y]."}' > "$tmp/patterns.jsonl"
corpuscausal stats "$tmp/corpus.idx" --kb "$tmp/kb.jsonl" --patterns "$tmp/patterns.jsonl" | tee "$tmp/stats.out"
grep -qP '^Paris\tFrance\t1$' "$tmp/stats.out"
# build-population through the installed entry point
inputs="--kb $tmp/kb.jsonl --patterns $tmp/patterns.jsonl --index $tmp/corpus.idx"
corpuscausal build-population soc --predictions baseline:heuristic $inputs \
  --output-dir "$tmp/pop" | tee "$tmp/build.out"
grep -q "soc: 4 rows, 2 pairs" "$tmp/build.out"
# the installed library reads the written table and pairs back, with the
# row and pair counts the CLI printed
python3 -c 'import sys; from corpuscausal import read_population; out, d = sys.argv[1:]; p = read_population(f"{d}/soc_population.tsv", f"{d}/soc_pairs.tsv", "soc"); line = f"soc: {len(p)} rows, {len(p.pairs)} pairs"; assert line in open(out).read(), line' \
  "$tmp/build.out" "$tmp/pop"
grep -qF "Paris is the capital of [MASK]." "$tmp/pop/soc_queries.tsv"
# one pattern, so no utt pair can form: an estimation error, exit 2
status=0
corpuscausal build-population all --predictions baseline:heuristic $inputs \
  --output-dir "$tmp/pop-all" 2> "$tmp/build-all.err" || status=$?
test "$status" -eq 2
grep -q "utt population has no matched pairs" "$tmp/build-all.err"
# dynamics through the installed entry point, on inputs where utt,
# poc and soc all have pairs: exit 0, ep2 before ep10 in the series
dyn="$tmp/dyn"
mkdir -p "$dyn/ckpts"
printf '%s\n' '{"subject": "Paris", "relation": "capital-of", "object": "France"}' \
  '{"subject": "Rome", "relation": "capital-of", "object": "Italy"}' > "$dyn/kb.jsonl"
printf '%s\n' '{"relation": "capital-of", "template": "[X] is the capital of [Y]."}' \
  '{"relation": "capital-of", "template": "[X] lies in [Y]."}' > "$dyn/patterns.jsonl"
printf '%s\n' 'Paris is the capital of France.' 'Rome lies in Italy.' \
  'Lyon is the capital of France.' 'Turin is the capital of Italy.' \
  'Nice lies in France.' 'Milan lies in Italy.' \
  'Paris and France.' 'Paris and Italy.' 'Rome and Italy.' 'Rome and France.' \
  'Paris and France.' 'Paris and Italy.' 'Rome and Italy.' 'Rome and France.' > "$dyn/corpus.txt"
for ep in ep2 ep10; do
  for s in Paris Rome; do
    for t in '[X] is the capital of [Y].' '[X] lies in [Y].'; do
      printf '{"subject": "%s", "relation": "capital-of", "template": "%s", "prediction": "France", "source_id": "%s"}\n' "$s" "$t" "$ep"
    done
  done > "$dyn/ckpts/$ep.jsonl"
done
corpuscausal dynamics --checkpoints "$dyn/ckpts" --kb "$dyn/kb.jsonl" \
  --patterns "$dyn/patterns.jsonl" --corpus "$dyn/corpus.txt" \
  --min-poc-frequency 0 --output-dir "$dyn/out" > "$tmp/dynamics.out"
grep -q "2 checkpoints" "$tmp/dynamics.out"
python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); s = [e["checkpoint"] for e in r["series"]]; assert s == ["ep2", "ep10"], s; assert None not in r["ate"].values(), r["ate"]' "$dyn/out/report.json"
# the delimited rendering carries the series: each hypothesis has an
# estimate row for checkpoint ep2, and so does its accuracy
corpuscausal report "$dyn/out/report.json" --format delimited > "$tmp/dynamics.tsv"
for name in utt poc soc accuracy; do
  grep -qP "^$name\tcheckpoint:ep2\t[^\t]+\t\$" "$tmp/dynamics.tsv"
done
# a rendering written twice into one path is one whole file, renamed
# into place with no temporary file left beside it
mkdir "$tmp/rendered"
for run in 1 2; do
  corpuscausal report "$dyn/out/report.json" --format delimited \
    -o "$tmp/rendered/report.tsv" > /dev/null
done
test "$(ls -A "$tmp/rendered")" = "report.tsv"
cmp "$tmp/dynamics.tsv" "$tmp/rendered/report.tsv"
# an output that is no regular file, here a pipe, is written in place
corpuscausal report "$dyn/out/report.json" --format delimited -o /dev/stdout \
  | sed '$d' | cmp - "$tmp/dynamics.tsv"
# a duplicate key outside every population still fails its checkpoint:
# the entry of ep10 names the line, and the run exits 0
cp -r "$dyn/ckpts" "$dyn/ckpts-dup"
for k in 1 2; do
  printf '%s\n' '{"subject": "Nobody", "relation": "capital-of", "template": "[X] lies in [Y].", "prediction": "Italy", "source_id": "ep10"}'
done >> "$dyn/ckpts-dup/ep10.jsonl"
corpuscausal dynamics --checkpoints "$dyn/ckpts-dup" --kb "$dyn/kb.jsonl" \
  --patterns "$dyn/patterns.jsonl" --corpus "$dyn/corpus.txt" \
  --min-poc-frequency 0 --output-dir "$dyn/dyn-dup" > /dev/null
python3 -c 'import json, sys; s = json.load(open(sys.argv[1]))["series"]; errors = {e["checkpoint"]: e["error"] for e in s}; expected = {"ep2": None, "ep10": "line 6: duplicate key (\x27Nobody\x27, \x27capital-of\x27, \x27[X] lies in [Y].\x27)"}; assert errors == expected, errors' \
  "$dyn/dyn-dup/report.json"
# a malformed second pattern record is an input error (exit 1) named by its line
printf '%s\n' '{"relation": "capital-of", "template": "[X] is the capital of [Y]."}' \
  '{"relation": "capital-of", "template": "[X] lies in [X]."}' > "$dyn/bad-patterns.jsonl"
status=0
corpuscausal estimate --predictions "$dyn/ckpts/ep2.jsonl" --kb "$dyn/kb.jsonl" \
  --patterns "$dyn/bad-patterns.jsonl" --corpus "$dyn/corpus.txt" \
  --output-dir "$dyn/bad-patterns" 2> "$tmp/bad-patterns.err" || status=$?
test "$status" -eq 1
grep -qF "line 2: template must contain exactly one [X] and one [Y]" "$tmp/bad-patterns.err"
# dynamics twice with a population cache, cold then warm: the warm run
# reads the columnar entries back and reports the same bytes
for run in cold warm; do
  corpuscausal dynamics --checkpoints "$dyn/ckpts" --kb "$dyn/kb.jsonl" \
    --patterns "$dyn/patterns.jsonl" --corpus "$dyn/corpus.txt" \
    --min-poc-frequency 0 --cache-dir "$dyn/dyn-cache" --output-dir "$dyn/dyn-$run" > /dev/null
done
cmp "$dyn/dyn-cold/report.json" "$dyn/dyn-warm/report.json"
test "$(ls "$dyn/dyn-cache" | grep -c '\.pop$')" -eq 3
for entry in "$dyn"/dyn-cache/*.pop; do
  test "$(head -c 8 "$entry")" = CCPOP003
done
# a last checkpoint that cannot be read is an error entry, not a failed
# run (exit 0): the report's estimate is still ep10's, as in dyn-cold
cp -r "$dyn/ckpts" "$dyn/ckpts-ep11"
printf '%s\n' '{}' > "$dyn/ckpts-ep11/ep11.jsonl"
corpuscausal dynamics --checkpoints "$dyn/ckpts-ep11" --kb "$dyn/kb.jsonl" \
  --patterns "$dyn/patterns.jsonl" --corpus "$dyn/corpus.txt" \
  --min-poc-frequency 0 --output-dir "$dyn/dyn-ep11" > /dev/null
python3 -c 'import json, sys; ref, r = (json.load(open(p)) for p in sys.argv[1:]); s = r["series"]; assert [e["checkpoint"] for e in s] == ["ep2", "ep10", "ep11"], s; assert s[-1]["error"] and s[-1]["ate"] is None, s[-1]; assert all(r[k] == ref[k] for k in ("source_id", "ate", "cate", "diagnostics")), r' \
  "$dyn/dyn-cold/report.json" "$dyn/dyn-ep11/report.json"
# the cache key digests the parsed KB, not the file: a copy with its
# keys reordered and one line repeated reads the same three entries
python3 -c 'import json, sys; lines = [json.dumps(dict(reversed(json.loads(l).items()))) for l in open(sys.argv[1])]; print("\n".join(lines + lines[:1]))' \
  "$dyn/kb.jsonl" > "$dyn/kb-reformatted.jsonl"
# (`! cmp` would not fail the step: bash -e ignores a negated status)
if cmp -s "$dyn/kb.jsonl" "$dyn/kb-reformatted.jsonl"; then exit 1; fi
corpuscausal dynamics --checkpoints "$dyn/ckpts" --kb "$dyn/kb-reformatted.jsonl" \
  --patterns "$dyn/patterns.jsonl" --corpus "$dyn/corpus.txt" \
  --min-poc-frequency 0 --cache-dir "$dyn/dyn-cache" --output-dir "$dyn/dyn-reformatted" > /dev/null
cmp "$dyn/dyn-cold/report.json" "$dyn/dyn-reformatted/report.json"
test "$(ls "$dyn/dyn-cache" | grep -c '\.pop$')" -eq 3
# no poc pair clears this floor: both runs exit 2 after writing equal
# reports, and the empty poc population is cached beside the others
for run in cold warm; do
  status=0
  corpuscausal estimate --predictions "$dyn/ckpts/ep2.jsonl" --kb "$dyn/kb.jsonl" \
    --patterns "$dyn/patterns.jsonl" --corpus "$dyn/corpus.txt" \
    --min-poc-frequency 1000000 --cache-dir "$dyn/empty-cache" \
    --output-dir "$dyn/empty-$run" || status=$?
  test "$status" -eq 2
done
cmp "$dyn/empty-cold/report.json" "$dyn/empty-warm/report.json"
test "$(ls "$dyn/empty-cache" | grep -c '\.pop$')" -eq 3
# estimate twice with a population cache: the second run reads the
# entries back, one .pop file per hypothesis, and reports the same bytes
for run in cold warm; do
  corpuscausal estimate --predictions "$dyn/ckpts/ep2.jsonl" --kb "$dyn/kb.jsonl" \
    --patterns "$dyn/patterns.jsonl" --corpus "$dyn/corpus.txt" \
    --min-poc-frequency 0 --cache-dir "$dyn/cache" --output-dir "$dyn/est-$run"
done
cmp "$dyn/est-cold/report.json" "$dyn/est-warm/report.json"
# each table the estimate wrote reads back with the rows and pairs its
# report counts
python3 -c '
import json, sys
from corpuscausal import read_population
out = sys.argv[1]
diagnostics = json.load(open(f"{out}/report.json"))["diagnostics"]
for hyp in ("utt", "poc", "soc"):
    pop = read_population(f"{out}/{hyp}_population.tsv", f"{out}/{hyp}_pairs.tsv", hyp)
    counts = diagnostics[hyp]["rows"], diagnostics[hyp]["pairs"]
    assert (len(pop), len(pop.pairs)) == counts, (hyp, len(pop), len(pop.pairs), counts)
' "$dyn/est-cold"
ls -A "$dyn/cache" | tee "$tmp/cache.ls"
test "$(wc -l < "$tmp/cache.ls")" -eq 3
test "$(grep -c '\.pop$' "$tmp/cache.ls")" -eq 3
# an index written twice into one path is the same file, renamed
# into place with no temporary file left beside it
mkdir "$dyn/idx"
corpuscausal index "$dyn/corpus.txt" -o "$dyn/idx/corpus.idx"
cp "$dyn/idx/corpus.idx" "$dyn/first.idx"
corpuscausal index "$dyn/corpus.txt" -o "$dyn/idx/corpus.idx"
cmp "$dyn/first.idx" "$dyn/idx/corpus.idx"
test "$(ls -A "$dyn/idx")" = "corpus.idx"
# the saved index keys the cache as the raw corpus did: its run reads
# the same three entries back and reports the same bytes
corpuscausal estimate --predictions "$dyn/ckpts/ep2.jsonl" --kb "$dyn/kb.jsonl" \
  --patterns "$dyn/patterns.jsonl" --index "$dyn/idx/corpus.idx" \
  --min-poc-frequency 0 --cache-dir "$dyn/cache" --output-dir "$dyn/est-index"
cmp "$dyn/est-cold/report.json" "$dyn/est-index/report.json"
# the emitted tables are written from the columns, whether the
# population was built (cold) or read from the cache (warm, index)
for hyp in utt poc soc; do
  for file in population pairs; do
    cmp "$dyn/est-cold/${hyp}_$file.tsv" "$dyn/est-warm/${hyp}_$file.tsv"
    cmp "$dyn/est-cold/${hyp}_$file.tsv" "$dyn/est-index/${hyp}_$file.tsv"
  done
done
ls -A "$dyn/cache" > "$tmp/cache-index.ls"
cmp "$tmp/cache.ls" "$tmp/cache-index.ls"
# every run setting is one config key and one flag: a run.cfg that
# sets each key and the same values given as flags report the same bytes;
# the output-dir holds a "#", which only starts a comment after whitespace
printf '%s\n' "kb = $dyn/kb.jsonl" "patterns = $dyn/patterns.jsonl" \
  "corpus = $dyn/corpus.txt" "index = $dyn/idx/corpus.idx" \
  "predictions = $dyn/ckpts/ep2.jsonl" "output-dir = $dyn/est#settings" \
  "mask-token = <mask>" "min-poc-frequency = 0" "bin-edges = 1, 5, 50, 500" \
  "output-format = structured" "cache-dir = $dyn/cache-settings" > "$dyn/run.cfg"
corpuscausal estimate --config "$dyn/run.cfg"
mv "$dyn/est#settings/report.json" "$dyn/settings-config.json"
corpuscausal estimate --kb "$dyn/kb.jsonl" --patterns "$dyn/patterns.jsonl" \
  --corpus "$dyn/corpus.txt" --index "$dyn/idx/corpus.idx" \
  --predictions "$dyn/ckpts/ep2.jsonl" --output-dir "$dyn/est#settings" \
  --mask-token '<mask>' --min-poc-frequency 0 --bin-edges '1, 5, 50, 500' \
  --output-format structured --cache-dir "$dyn/cache-settings"
cmp "$dyn/settings-config.json" "$dyn/est#settings/report.json"
# that run.cfg sets every key of the settings map, and estimate --help
# lists each key as a flag
corpuscausal estimate --help > "$tmp/estimate-help.out"
keys=$(python3 -c 'from corpuscausal.pipeline import SETTINGS; print(*SETTINGS)')
for key in $keys; do
  grep -q "^$key = " "$dyn/run.cfg"
  grep -qE -- "--$key( |\$)" "$tmp/estimate-help.out"
done
