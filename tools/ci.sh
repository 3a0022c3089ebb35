#!/bin/sh
# CI entry point: full build, tier-1 test suites at two job counts, a
# paired smoke bench (sequential vs parallel) that must produce non-empty
# machine-readable reports and a sane speedup ratio, a noise-aware perf
# gate that diffs the sequential smoke report against the committed
# baseline (BENCH_0008.json, region-profiled) with tools/perf_diff, a
# constraint-provenance profile stage on both backends, and an optimiser
# stage (lib/opt): optimised prove/verify on both backends, a measured
# nnz win on the ViT profile, and a second perf gate against the
# optimised baseline BENCH_0009.json.
set -eu

cd "$(dirname "$0")/.."

NPROC=$(nproc 2>/dev/null || echo 1)

echo "== dune build =="
dune build

echo "== tier-1 suites (jobs=1), wall seconds per suite =="
# the same executables dune runtest runs, from the same directory, one at
# a time so each suite's wall time lands in the log
now() { date +%s.%N; }
for exe in _build/default/test/test_*.exe; do
    name=$(basename "$exe" .exe)
    t0=$(now)
    if ! (cd _build/default/test && ZKVC_JOBS=1 "./$name.exe" >"/tmp/ci-$name.log" 2>&1); then
        cat "/tmp/ci-$name.log" >&2
        echo "ci: $name failed" >&2
        exit 1
    fi
    awk -v a="$t0" -v b="$(now)" -v n="$name" 'BEGIN { printf "ci: suite %-18s %8.1f s\n", n, b - a }'
done

echo "== dune runtest (jobs=max, nproc=$NPROC) =="
ZKVC_JOBS=0 dune runtest --force

echo "== smoke bench (tab2, scale 16, repeat 3, jobs=1 vs jobs=max) =="
BENCH_JSON=${BENCH_JSON:-/tmp/bench.json}
BENCH_JSON_PAR=${BENCH_JSON_PAR:-/tmp/bench-par.json}
rm -f "$BENCH_JSON" "$BENCH_JSON_PAR"
# --profile embeds the per-region constraint ledger so the perf gate
# below also holds region-level structural counts to exact equality
dune exec bench/main.exe -- --only tab2 --scale 16 --repeat 3 --jobs 1 --profile --json "$BENCH_JSON"
dune exec bench/main.exe -- --only tab2 --scale 16 --repeat 3 --jobs 0 --profile --json "$BENCH_JSON_PAR"

for f in "$BENCH_JSON" "$BENCH_JSON_PAR"; do
    if [ ! -s "$f" ]; then
        echo "ci: bench json report missing or empty: $f" >&2
        exit 1
    fi
done

# total proving seconds across the report's measurement rows
sum_prove() {
    awk -F: '/"prove_s"/ { gsub(/[ ,]/, "", $2); s += $2 } END { printf "%.6f", s }' "$1"
}
SEQ=$(sum_prove "$BENCH_JSON")
PAR=$(sum_prove "$BENCH_JSON_PAR")
echo "ci: prove totals  jobs=1 ${SEQ}s  jobs=max ${PAR}s"

if [ "$NPROC" -le 1 ]; then
    # single-core runner: worker domains timeshare one CPU, so no speedup
    # is possible; determinism and correctness were still exercised above
    echo "ci: nproc=1, skipping the parallel-not-slower assertion"
else
    # tolerate noise but catch pathological slowdowns from the pool
    awk -v seq="$SEQ" -v par="$PAR" 'BEGIN {
        if (par > seq * 1.25) {
            printf "ci: parallel bench slower than sequential (%.3fs vs %.3fs)\n", par, seq
            exit 1
        }
    }' </dev/null
fi

echo "== perf gate: tools/perf_diff vs committed baseline =="
BASELINE=${BASELINE:-BENCH_0008.json}
if [ ! -s "$BASELINE" ]; then
    echo "ci: baseline report missing: $BASELINE" >&2
    exit 1
fi

# env.nproc of a report (first "nproc" field in the file)
json_nproc() {
    grep -o '"nproc": *[0-9]*' "$1" | head -n 1 | grep -o '[0-9]*$'
}
BASE_NPROC=$(json_nproc "$BASELINE")
RUN_NPROC=$(json_nproc "$BENCH_JSON")

if [ "$BASE_NPROC" = "$RUN_NPROC" ]; then
    dune exec tools/perf_diff.exe -- "$BASELINE" "$BENCH_JSON"
else
    # wall times from a different core count are not comparable, but the
    # cost ledger is deterministic: constraint counts must never drift
    echo "ci: baseline nproc=$BASE_NPROC, runner nproc=$RUN_NPROC;"
    echo "ci: skipping wall-time comparison, still checking cost-ledger equality"
    dune exec tools/perf_diff.exe -- --skip-time "$BASELINE" "$BENCH_JSON"
fi

# schema compatibility: the previous-generation v2 baseline (no region
# blocks) must keep diffing against a freshly produced v3 report — the
# region comparison is skipped when one side lacks the tree, the global
# ledger still gates. Wall times from the v2 era are not comparable.
dune exec tools/perf_diff.exe -- --skip-time BENCH_0003.json "$BENCH_JSON" || {
    echo "ci: v2 baseline no longer diffs against a v3 report" >&2
    exit 1
}

echo "== constraint-provenance profile (both backends) =="
PROF_TMP=$(mktemp -d /tmp/zkvc-profile-ci.XXXXXX)
for BACKEND in groth16 spartan; do
    echo "-- profile $BACKEND --"
    dune exec bin/zkvc_cli.exe -- profile --backend "$BACKEND" --strategy crpc+psq \
        --dims 8,8,16 --folded "$PROF_TMP/$BACKEND.folded" \
        --json "$PROF_TMP/$BACKEND.json" | tee "$PROF_TMP/$BACKEND.out"
    # the table's region constraint sum must equal the global ledger
    grep -q "exact match" "$PROF_TMP/$BACKEND.out" || {
        echo "ci: profile region sum does not match the global ledger ($BACKEND)" >&2
        exit 1
    }
    # the folded export is non-empty and every line is `path;seg N`
    if [ ! -s "$PROF_TMP/$BACKEND.folded" ]; then
        echo "ci: folded profile missing or empty ($BACKEND)" >&2
        exit 1
    fi
    awk '!/^[^ ]+ [0-9]+$/ { bad = 1 } END { exit bad }' "$PROF_TMP/$BACKEND.folded" || {
        echo "ci: folded profile has malformed lines ($BACKEND)" >&2
        cat "$PROF_TMP/$BACKEND.folded" >&2
        exit 1
    }
    # the emitted zkvc-bench/3 report is machine-readable: diffing it
    # against itself must come out clean
    dune exec tools/perf_diff.exe -- --skip-time "$PROF_TMP/$BACKEND.json" \
        "$PROF_TMP/$BACKEND.json" > /dev/null || {
        echo "ci: profile report does not round-trip through perf_diff ($BACKEND)" >&2
        exit 1
    }
done

# the region-level gate actually gates: inject a one-count nnz change
# into a single region of a copy and require perf_diff to fail on it
sed '0,/"nnz_a": *[0-9][0-9]*/s//"nnz_a": 999999/' "$PROF_TMP/groth16.json" \
    > "$PROF_TMP/groth16-drifted.json"
if dune exec tools/perf_diff.exe -- --skip-time "$PROF_TMP/groth16.json" \
    "$PROF_TMP/groth16-drifted.json" > "$PROF_TMP/drift.out" 2>&1; then
    echo "ci: injected per-region nnz drift was not flagged" >&2
    cat "$PROF_TMP/drift.out" >&2
    exit 1
fi
grep -q "region " "$PROF_TMP/drift.out" || {
    echo "ci: drift verdict does not name the owning region" >&2
    cat "$PROF_TMP/drift.out" >&2
    exit 1
}
echo "ci: profile stage ok ($PROF_TMP)"

echo "== optimiser stage: lib/opt pipeline =="
OPT_TMP=$(mktemp -d /tmp/zkvc-opt-ci.XXXXXX)
# end-to-end on both backends: optimised keygen, optimised prove (exits
# non-zero on a failed verification), and offline verify of the optimised
# proof against the spilled key file (which carries the optimiser config)
for BACKEND in groth16 spartan; do
    echo "-- optimised prove/verify $BACKEND --"
    dune exec bin/zkvc_cli.exe -- keygen --dims 4,4,8 --backend "$BACKEND" --seed 7 \
        --optimize --out "$OPT_TMP/$BACKEND.zkvk" > /dev/null
    dune exec bin/zkvc_cli.exe -- prove --dims 4,4,8 --backend "$BACKEND" --seed 7 \
        --optimize --out "$OPT_TMP/$BACKEND.zkvp" > "$OPT_TMP/$BACKEND-prove.out" || {
        echo "ci: optimised prove failed ($BACKEND)" >&2
        cat "$OPT_TMP/$BACKEND-prove.out" >&2
        exit 1
    }
    dune exec bin/zkvc_cli.exe -- verify --key "$OPT_TMP/$BACKEND.zkvk" \
        --proof "$OPT_TMP/$BACKEND.zkvp" | grep -q "verified: true" || {
        echo "ci: offline verification of an optimised proof failed ($BACKEND)" >&2
        exit 1
    }
done

# the pipeline must actually win on a real workload: the ViT token-mixer
# profile with --optimize reports a strictly smaller nnz total, keeps the
# per-region ledger exact, and attributes every win to a region
dune exec bin/zkvc_cli.exe -- profile --arch cifar10 --variant zkvc --shrink 24 \
    --backend spartan --optimize | tee "$OPT_TMP/profile.out"
grep -q "exact match" "$OPT_TMP/profile.out" || {
    echo "ci: optimised profile region sum does not match the global ledger" >&2
    exit 1
}
awk '/^  total .* nnz / {
    before = $(NF - 2); after = $NF
    if (after + 0 >= before + 0) {
        printf "ci: optimiser did not reduce nnz (%d -> %d)\n", before, after
        exit 1
    }
    found = 1
}
END { if (!found) { print "ci: no optimiser nnz total in the profile output"; exit 1 } }' \
    "$OPT_TMP/profile.out" || exit 1

# per-pass behaviour on an injected-redundancy circuit (exact elimination
# counts, witness round trips) is asserted by test/test_opt.ml in the
# runtest stages above; here we gate the committed optimised baseline:
# same smoke bench as the perf gate, now with --optimize, against
# BENCH_0009.json — structural counts (global and per region) to exact
# equality, wall time only when the core count matches
echo "-- optimised perf gate vs BENCH_0009.json --"
BENCH_OPT_JSON=${BENCH_OPT_JSON:-/tmp/bench-opt.json}
rm -f "$BENCH_OPT_JSON"
dune exec bench/main.exe -- --only tab2 --scale 16 --repeat 3 --jobs 1 \
    --profile --optimize --json "$BENCH_OPT_JSON"
OPT_BASELINE=${OPT_BASELINE:-BENCH_0009.json}
if [ ! -s "$OPT_BASELINE" ]; then
    echo "ci: optimised baseline report missing: $OPT_BASELINE" >&2
    exit 1
fi
OPT_BASE_NPROC=$(json_nproc "$OPT_BASELINE")
if [ "$OPT_BASE_NPROC" = "$(json_nproc "$BENCH_OPT_JSON")" ]; then
    dune exec tools/perf_diff.exe -- "$OPT_BASELINE" "$BENCH_OPT_JSON"
else
    echo "ci: optimised baseline nproc=$OPT_BASE_NPROC differs; cost ledger only"
    dune exec tools/perf_diff.exe -- --skip-time "$OPT_BASELINE" "$BENCH_OPT_JSON"
fi
echo "ci: optimiser stage ok ($OPT_TMP)"

echo "== proof service smoke (socket e2e, both backends, telemetry) =="
SERVE_TMP=$(mktemp -d /tmp/zkvc-serve-ci.XXXXXX)
SOCK="$SERVE_TMP/zkvc.sock"
dune exec bin/zkvc_cli.exe -- serve --socket "$SOCK" --cache-dir "$SERVE_TMP/keys" \
    --metrics --metrics-file "$SERVE_TMP/metrics.prom" --metrics-interval 0.2 \
    --flight-file "$SERVE_TMP/flight.jsonl" --trace "$SERVE_TMP/serve-trace.json" \
    > "$SERVE_TMP/serve.log" 2>&1 &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
if [ ! -S "$SOCK" ]; then
    echo "ci: proof service did not come up" >&2
    cat "$SERVE_TMP/serve.log" >&2
    exit 1
fi

for BACKEND in groth16 spartan; do
    echo "-- $BACKEND --"
    # first prove is a cache miss: its proof must be byte-identical to an
    # in-process Api.run proof of the same seeded statement
    dune exec bin/zkvc_cli.exe -- client prove --socket "$SOCK" --dims 4,4,8 \
        --backend "$BACKEND" --seed 7 --out "$SERVE_TMP/$BACKEND.zkvp" \
        | tee "$SERVE_TMP/$BACKEND-prove1.out"
    grep -q "cache miss" "$SERVE_TMP/$BACKEND-prove1.out" || {
        echo "ci: first prove should miss the key cache" >&2
        exit 1
    }
    dune exec bin/zkvc_cli.exe -- prove --dims 4,4,8 --backend "$BACKEND" --seed 7 \
        --out "$SERVE_TMP/$BACKEND-local.zkvp" > /dev/null
    cmp "$SERVE_TMP/$BACKEND.zkvp" "$SERVE_TMP/$BACKEND-local.zkvp" || {
        echo "ci: served proof differs from the in-process proof" >&2
        exit 1
    }
    # keygen and a second prove for the same circuit must hit the cache
    dune exec bin/zkvc_cli.exe -- client keygen --socket "$SOCK" --dims 4,4,8 \
        --backend "$BACKEND" --seed 7 --out "$SERVE_TMP/$BACKEND.zkvk" \
        | grep -q "cache hit" || { echo "ci: keygen should hit the cache" >&2; exit 1; }
    dune exec bin/zkvc_cli.exe -- client prove --socket "$SOCK" --dims 4,4,8 \
        --backend "$BACKEND" --seed 7 | grep -q "cache hit" || {
        echo "ci: second prove should hit the key cache" >&2
        exit 1
    }
    # verify the served proof both on the server and offline via key file
    dune exec bin/zkvc_cli.exe -- client verify --socket "$SOCK" \
        --proof "$SERVE_TMP/$BACKEND.zkvp" | grep -q "verified: true" || {
        echo "ci: server-side verification failed" >&2
        exit 1
    }
    dune exec bin/zkvc_cli.exe -- verify --key "$SERVE_TMP/$BACKEND.zkvk" \
        --proof "$SERVE_TMP/$BACKEND.zkvp" | grep -q "verified: true" || {
        echo "ci: offline verification via key file failed" >&2
        exit 1
    }
done

dune exec bin/zkvc_cli.exe -- client status --socket "$SOCK" | tee "$SERVE_TMP/status.out"
grep -Eq "cache_hits=[1-9]" "$SERVE_TMP/status.out" || {
    echo "ci: status should report cache hits" >&2
    exit 1
}

echo "-- cross-process trace --"
# a traced prove: the client records its own spans, stitches the server's
# returned phase timings in, and prints the request id — which must then
# appear in BOTH the client's and (after shutdown) the server's trace
dune exec bin/zkvc_cli.exe -- client prove --socket "$SOCK" --dims 4,4,8 \
    --backend groth16 --seed 7 --trace "$SERVE_TMP/client-trace.json" \
    | tee "$SERVE_TMP/traced-prove.out"
RID=$(sed -n 's/^request //p' "$SERVE_TMP/traced-prove.out")
if [ -z "$RID" ]; then
    echo "ci: traced prove printed no request id" >&2
    exit 1
fi
grep -q "$RID" "$SERVE_TMP/client-trace.json" || {
    echo "ci: request id $RID missing from the client trace" >&2
    exit 1
}
grep -q "server.exec" "$SERVE_TMP/client-trace.json" || {
    echo "ci: server phases not stitched into the client trace" >&2
    exit 1
}

echo "-- flight recorder --"
# one JSONL record per executed job: (prove+keygen+prove+verify) x 2
# backends + the traced prove above
dune exec bin/zkvc_cli.exe -- client status --socket "$SOCK" --detail \
    > "$SERVE_TMP/detail.out" 2> "$SERVE_TMP/detail.err"
DETAIL_COUNT=$(wc -l < "$SERVE_TMP/detail.out")
if [ "$DETAIL_COUNT" -ne 9 ]; then
    echo "ci: expected 9 flight records, got $DETAIL_COUNT" >&2
    cat "$SERVE_TMP/detail.out" >&2
    exit 1
fi
grep -q "\"request_id\":\"$RID\"" "$SERVE_TMP/detail.out" || {
    echo "ci: traced request id missing from the flight dump" >&2
    exit 1
}

dune exec bin/zkvc_cli.exe -- client shutdown --socket "$SOCK"
wait "$SERVE_PID"

# shutdown flushed the same ring the live dump came from: byte-identical
cmp "$SERVE_TMP/detail.out" "$SERVE_TMP/flight.jsonl" || {
    echo "ci: flight file differs from the live status --detail dump" >&2
    exit 1
}

echo "-- metrics exposition --"
grep -Eq "^zkvc_serve_requests_total [1-9]" "$SERVE_TMP/metrics.prom" || {
    echo "ci: metrics snapshot missing a non-zero request counter" >&2
    cat "$SERVE_TMP/metrics.prom" >&2
    exit 1
}
# zkvc_cli top --file re-parses the snapshot against the exposition
# grammar and exits non-zero on any malformed line
dune exec bin/zkvc_cli.exe -- top --file "$SERVE_TMP/metrics.prom" > /dev/null || {
    echo "ci: metrics snapshot failed exposition validation" >&2
    exit 1
}
grep -q "$RID" "$SERVE_TMP/serve-trace.json" || {
    echo "ci: request id $RID missing from the server trace" >&2
    exit 1
}
if [ -S "$SOCK" ]; then
    echo "ci: socket file left behind after shutdown" >&2
    exit 1
fi
grep -q "serve.cache.hit" "$SERVE_TMP/serve.log" || {
    echo "ci: serve.cache.hit metric missing from the serve log" >&2
    cat "$SERVE_TMP/serve.log" >&2
    exit 1
}
echo "ci: proof service smoke ok ($SERVE_TMP)"

echo "== proof service smoke (--workers 2, concurrent clients) =="
# A fresh server instance with two worker threads: concurrent proves from
# separate clients must all complete, serve byte-identical proofs, and the
# metrics snapshot must expose the per-lane queue gauges.
# Concurrent `dune exec` invocations contend on dune's build lock and can
# stall one client behind the other, so this stage builds the CLI once and
# runs the binary directly for every concurrent invocation.
dune build bin/zkvc_cli.exe
ZKVC_BIN=_build/default/bin/zkvc_cli.exe
MW_TMP=$(mktemp -d /tmp/zkvc-serve-mw.XXXXXX)
MW_SOCK="$MW_TMP/zkvc.sock"
"$ZKVC_BIN" serve --socket "$MW_SOCK" --workers 2 \
    --metrics-file "$MW_TMP/metrics.prom" --metrics-interval 0.2 \
    > "$MW_TMP/serve.log" 2>&1 &
MW_PID=$!
i=0
while [ ! -S "$MW_SOCK" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
if [ ! -S "$MW_SOCK" ]; then
    echo "ci: multi-worker proof service did not come up" >&2
    cat "$MW_TMP/serve.log" >&2
    exit 1
fi

# two different circuits proved concurrently (each lands on its own worker)
"$ZKVC_BIN" client prove --socket "$MW_SOCK" --dims 4,4,8 \
    --backend spartan --seed 7 --out "$MW_TMP/a.zkvp" > "$MW_TMP/a.out" 2>&1 &
CLIENT_A=$!
"$ZKVC_BIN" client prove --socket "$MW_SOCK" --dims 4,8,4 \
    --backend spartan --seed 9 --out "$MW_TMP/b.zkvp" > "$MW_TMP/b.out" 2>&1 &
CLIENT_B=$!
wait "$CLIENT_A" || { echo "ci: concurrent prove A failed" >&2; cat "$MW_TMP/a.out" >&2; exit 1; }
wait "$CLIENT_B" || { echo "ci: concurrent prove B failed" >&2; cat "$MW_TMP/b.out" >&2; exit 1; }

# cache-miss proofs stay byte-identical to in-process proving under workers=2
"$ZKVC_BIN" prove --dims 4,4,8 --backend spartan --seed 7 \
    --out "$MW_TMP/a-local.zkvp" > /dev/null
cmp "$MW_TMP/a.zkvp" "$MW_TMP/a-local.zkvp" || {
    echo "ci: multi-worker served proof differs from the in-process proof" >&2
    exit 1
}

# concurrent verifies ride the priority lane; both must pass
"$ZKVC_BIN" client verify --socket "$MW_SOCK" \
    --proof "$MW_TMP/a.zkvp" > "$MW_TMP/va.out" 2>&1 &
VERIFY_A=$!
"$ZKVC_BIN" client verify --socket "$MW_SOCK" \
    --proof "$MW_TMP/b.zkvp" > "$MW_TMP/vb.out" 2>&1 &
VERIFY_B=$!
wait "$VERIFY_A" && wait "$VERIFY_B" || {
    echo "ci: concurrent verifies failed" >&2
    cat "$MW_TMP/va.out" "$MW_TMP/vb.out" >&2
    exit 1
}
grep -q "verified: true" "$MW_TMP/va.out" && grep -q "verified: true" "$MW_TMP/vb.out" || {
    echo "ci: concurrent verifies did not both verify" >&2
    exit 1
}

"$ZKVC_BIN" client status --socket "$MW_SOCK" | tee "$MW_TMP/status.out"
grep -Eq "workers=[0-9]+/2" "$MW_TMP/status.out" || {
    echo "ci: status should report the worker pool size" >&2
    exit 1
}

"$ZKVC_BIN" client shutdown --socket "$MW_SOCK"
wait "$MW_PID"

for METRIC in zkvc_serve_workers zkvc_serve_queue_depth_verify zkvc_serve_queue_depth_prove; do
    grep -q "^$METRIC " "$MW_TMP/metrics.prom" || {
        echo "ci: metrics snapshot missing $METRIC" >&2
        cat "$MW_TMP/metrics.prom" >&2
        exit 1
    }
done
grep -Eq "^zkvc_serve_workers 2(\.0+)?$" "$MW_TMP/metrics.prom" || {
    echo "ci: zkvc_serve_workers should report 2" >&2
    exit 1
}
echo "ci: multi-worker proof service smoke ok ($MW_TMP)"

echo "== adversary: bounded fault-injection sweep =="
# Bounded deterministic sweep: both backends, the cheap and the full CRPC
# encoding, one dimension scale. The seed is fixed and printed by the CLI
# so any accepted forgery reproduces with the printed repro line; the
# subcommand exits non-zero on any accepted forgery or verifier crash.
# (The full grid — all four strategies at two scales — runs in
# test/test_adversary.ml above.)
ADVERSARY_SEED=${ADVERSARY_SEED:-2024}
for BACKEND in groth16 spartan; do
    dune exec bin/zkvc_cli.exe -- adversary --seed "$ADVERSARY_SEED" \
        --backend "$BACKEND" --strategy vanilla --dims 2,2,2 || {
        echo "ci: adversary sweep found an accepted forgery ($BACKEND/vanilla)" >&2
        exit 1
    }
    dune exec bin/zkvc_cli.exe -- adversary --seed "$ADVERSARY_SEED" \
        --backend "$BACKEND" --strategy crpc+psq --dims 2,2,2 || {
        echo "ci: adversary sweep found an accepted forgery ($BACKEND/crpc+psq)" >&2
        exit 1
    }
done
# the same sweep against optimiser-transformed circuits: a pass that
# widened the acceptance set would surface here as an accepted forgery
dune exec bin/zkvc_cli.exe -- adversary --seed "$ADVERSARY_SEED" \
    --backend spartan --strategy crpc+psq --dims 2,2,2 --optimize || {
    echo "ci: adversary sweep found an accepted forgery on an optimised circuit" >&2
    exit 1
}
echo "ci: adversary sweep clean (seed=$ADVERSARY_SEED)"

echo "== amortised verification: batch + aggregate =="
# Offline round trip: one vanilla key reused across seeds (prove --key), a
# batched verify (one combined check for all members), a SnarkPack-style
# aggregate and its verification — then the failure paths: a member whose
# trailing Groth16 proof bytes were spliced from another statement (the
# combined check must sink and the per-item fallback must isolate it), and
# an SRS-seed mismatch (the KZG checks on the structured commitment keys
# must reject).
AGG_TMP=$(mktemp -d /tmp/zkvc-agg-ci.XXXXXX)
"$ZKVC_BIN" keygen --backend groth16 --strategy vanilla --dims 2,2,2 \
    --seed 41 --out "$AGG_TMP/k.zkvk" > /dev/null
BATCH_ARGS=""
for S in 41 42 43 44; do
    "$ZKVC_BIN" prove --key "$AGG_TMP/k.zkvk" --seed "$S" \
        --out "$AGG_TMP/p$S.zkvp" > /dev/null
    BATCH_ARGS="$BATCH_ARGS --batch $AGG_TMP/p$S.zkvp"
done
# shellcheck disable=SC2086
"$ZKVC_BIN" verify --key "$AGG_TMP/k.zkvk" $BATCH_ARGS | tee "$AGG_TMP/batch.out"
grep -q "batch of 4: batched" "$AGG_TMP/batch.out" || {
    echo "ci: batched verify should take the combined path" >&2
    exit 1
}
[ "$(grep -c "verified: true" "$AGG_TMP/batch.out")" = 4 ] || {
    echo "ci: batched verify should accept all four members" >&2
    exit 1
}
"$ZKVC_BIN" aggregate --key "$AGG_TMP/k.zkvk" --srs-seed 99 \
    --out "$AGG_TMP/agg.zkva" \
    "$AGG_TMP/p41.zkvp" "$AGG_TMP/p42.zkvp" "$AGG_TMP/p43.zkvp" "$AGG_TMP/p44.zkvp"
"$ZKVC_BIN" verify --key "$AGG_TMP/k.zkvk" --aggregate "$AGG_TMP/agg.zkva" \
    --srs-seed 99 | grep -q "verified: true" || {
    echo "ci: aggregate verification failed" >&2
    exit 1
}
if "$ZKVC_BIN" verify --key "$AGG_TMP/k.zkvk" --aggregate "$AGG_TMP/agg.zkva" \
    --srs-seed 7 > "$AGG_TMP/srs.out" 2>&1; then
    echo "ci: aggregate verified under the wrong SRS seed" >&2
    exit 1
fi
grep -q "verified: false" "$AGG_TMP/srs.out" || {
    echo "ci: wrong-SRS rejection should be a false verdict, not a crash" >&2
    cat "$AGG_TMP/srs.out" >&2
    exit 1
}
PROOF_LEN=$(wc -c < "$AGG_TMP/p41.zkvp")
head -c $((PROOF_LEN - 259)) "$AGG_TMP/p41.zkvp" > "$AGG_TMP/bad.zkvp"
tail -c 259 "$AGG_TMP/p42.zkvp" >> "$AGG_TMP/bad.zkvp"
if "$ZKVC_BIN" verify --key "$AGG_TMP/k.zkvk" --batch "$AGG_TMP/bad.zkvp" \
    --batch "$AGG_TMP/p42.zkvp" --batch "$AGG_TMP/p43.zkvp" \
    > "$AGG_TMP/fallback.out" 2>&1; then
    echo "ci: batch with a spliced member should exit non-zero" >&2
    exit 1
fi
grep -q "bad.zkvp: verified: false" "$AGG_TMP/fallback.out" \
    && grep -q "p42.zkvp: verified: true" "$AGG_TMP/fallback.out" \
    && grep -q "batch of 3: fallback" "$AGG_TMP/fallback.out" || {
    echo "ci: batch fallback should isolate the spliced member" >&2
    cat "$AGG_TMP/fallback.out" >&2
    exit 1
}

# server side: --batch-aggregate coalesces same-key Batch_verify members
# into one aggregated check; the counters must land in the Prometheus
# snapshot
AGG_SOCK="$AGG_TMP/zkvc.sock"
"$ZKVC_BIN" serve --socket "$AGG_SOCK" --batch-aggregate --metrics \
    --metrics-file "$AGG_TMP/metrics.prom" --metrics-interval 0.2 \
    > "$AGG_TMP/serve.log" 2>&1 &
AGG_PID=$!
i=0
while [ ! -S "$AGG_SOCK" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
if [ ! -S "$AGG_SOCK" ]; then
    echo "ci: batch-aggregate proof service did not come up" >&2
    cat "$AGG_TMP/serve.log" >&2
    exit 1
fi
SRV_BATCH_ARGS=""
for S in 11 12 13; do
    "$ZKVC_BIN" client prove --socket "$AGG_SOCK" --dims 2,2,2 \
        --backend groth16 --strategy vanilla --seed "$S" \
        --out "$AGG_TMP/s$S.zkvp" > /dev/null
    SRV_BATCH_ARGS="$SRV_BATCH_ARGS --batch $AGG_TMP/s$S.zkvp"
done
# shellcheck disable=SC2086
"$ZKVC_BIN" client verify --socket "$AGG_SOCK" $SRV_BATCH_ARGS \
    | tee "$AGG_TMP/srv-batch.out"
[ "$(grep -c "verified: true" "$AGG_TMP/srv-batch.out")" = 3 ] || {
    echo "ci: server-side batch verify should accept all three members" >&2
    exit 1
}
sleep 0.5
"$ZKVC_BIN" client shutdown --socket "$AGG_SOCK" > /dev/null
wait "$AGG_PID"
grep -Eq "^zkvc_serve_batch_aggregated_total [1-9]" "$AGG_TMP/metrics.prom" || {
    echo "ci: serve.batch.aggregated should have fired under --batch-aggregate" >&2
    cat "$AGG_TMP/metrics.prom" >&2
    exit 1
}
grep -Eq "^zkvc_serve_batch_groups_total [1-9]" "$AGG_TMP/metrics.prom" || {
    echo "ci: serve.batch.groups counter missing from the metrics snapshot" >&2
    exit 1
}
# the adversary families covering these paths (one-bad-member isolation,
# statement swaps, aggregate tampering, frame bit flips) at the CI seed
"$ZKVC_BIN" adversary --seed "$ADVERSARY_SEED" --backend groth16 \
    --strategy vanilla --dims 2,2,2 --only batch. || {
    echo "ci: adversary batch family found an accepted forgery" >&2
    exit 1
}
"$ZKVC_BIN" adversary --seed "$ADVERSARY_SEED" --backend groth16 \
    --strategy vanilla --dims 2,2,2 --only aggregate. || {
    echo "ci: adversary aggregate family found an accepted forgery" >&2
    exit 1
}
echo "ci: batch + aggregate round trip ok ($AGG_TMP)"

echo "-- amortisation gate vs BENCH_0010.json --"
# same agg bench that produced the committed baseline: batch-nN rows carry
# per-proof individual verify in setup_s and per-proof batched verify in
# verify_s, so perf_diff gates both against BENCH_0010.json, and the awk
# below asserts the headline claim on the fresh run — at N=16 the batched
# per-proof cost beats the individual per-proof cost on both backends
BENCH_AGG_JSON=${BENCH_AGG_JSON:-/tmp/bench-agg.json}
rm -f "$BENCH_AGG_JSON"
dune exec bench/main.exe -- --only agg --scale 16 --repeat 3 --jobs 1 \
    --agg-max 16 --json "$BENCH_AGG_JSON"
AGG_BASELINE=${AGG_BASELINE:-BENCH_0010.json}
if [ ! -s "$AGG_BASELINE" ]; then
    echo "ci: amortisation baseline report missing: $AGG_BASELINE" >&2
    exit 1
fi
AGG_BASE_NPROC=$(json_nproc "$AGG_BASELINE")
if [ "$AGG_BASE_NPROC" = "$(json_nproc "$BENCH_AGG_JSON")" ]; then
    dune exec tools/perf_diff.exe -- "$AGG_BASELINE" "$BENCH_AGG_JSON"
else
    echo "ci: amortisation baseline nproc=$AGG_BASE_NPROC differs; cost ledger only"
    dune exec tools/perf_diff.exe -- --skip-time "$AGG_BASELINE" "$BENCH_AGG_JSON"
fi
awk '
/"scheme": "batch-n16"/ { want = 1 }
want && /^      "setup_s":/ { ind = $2 + 0 }
want && /^      "verify_s":/ {
    per = $2 + 0
    if (!(per < ind)) {
        printf "ci: batch-n16 per-proof %.4fs is not cheaper than individual %.4fs\n", per, ind
        exit 1
    }
    rows += 1
    want = 0
}
END { if (rows < 2) { print "ci: expected a batch-n16 row per backend"; exit 1 } }' \
    "$BENCH_AGG_JSON" || exit 1
echo "ci: amortisation gate ok ($BENCH_AGG_JSON)"

echo "ci: ok ($BENCH_JSON, $BENCH_JSON_PAR)"
