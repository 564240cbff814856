#!/usr/bin/env sh
# Tier-1 verification recipe (see ROADMAP.md): build, tests, lints, docs.
#
# Usage: scripts/verify.sh [--offline]
#   --offline   forward --offline to every cargo invocation (default when
#               CARGO_NET_OFFLINE=true); required in registry-less builds.
#
# Steps:
#   0. cargo fmt --all --check (formatting; `benchmark/` is a workspace
#      of its own and is not checked)
#   1. cargo build --release --workspace
#   2. cargo build --release --examples
#   3. cargo test -q --workspace
#   4. cargo clippy --workspace --all-targets -- -D warnings
#   5. cargo doc --no-deps --workspace   (rustdoc warnings are errors)
#   6. streaming collapse: at (6,3) the chunked `rpr plan` makespan must
#      be strictly lower than the store-and-forward one
#   7. chaos soak: the supervised 3-fault storm (`rpr chaos`, crash →
#      replacement crash → timeout) and the one-crash storm (`--storm
#      crash`, what `rpr inject` runs) must complete at (6,3) and emit a
#      byte-identical trace and summary across runs (docs/ROBUSTNESS.md),
#      with and without cut-through streaming (--chunk-size); the seed-17
#      block-mode storm is also written as `--format chrome`, which must
#      be byte-identical across runs and parse (jq) to a non-empty
#      `traceEvents` array (docs/TRACING.md); `rpr trace --format jsonl`
#      at (6,3), block mode and `--chunk-size 8`, must print byte-identical
#      stdout and stderr across runs, and the stderr summary's `N events
#      (0 dropped)` must equal the stdout line count (the recorder counts
#      only what it drops, so N is the ring's length plus that count)
#   8. exec soak: the same 3-fault storm on the real-bytes backend
#      (`rpr chaos --backend exec --block-mib 4`), once as a one-chunk
#      stream, once cut-through in 1 MiB chunks (`--chunk-size 1`) and
#      once in 768 KiB chunks (`--chunk-size 768K`: five full chunks and a
#      256 KiB tail), must verify byte for byte and replan twice. Traces
#      are wall-clock, so no `cmp`.
#   9. Byzantine soak: a seeded `StormFault::Lie` storm under
#      `--proof mandatory` must complete with the liar accused (not
#      timed out), produce byte-identical traces and proof ledgers
#      across two same-seed runs, and `rpr audit` must verify the
#      captured ledger against the trace offline and localize the
#      dishonest hop (docs/ROBUSTNESS.md, "The proof plane"); the same
#      storm on the real-bytes backend (`--backend exec --block-mib 4`)
#      must verify with one accusation, and `rpr audit` of its trace and
#      ledger must localize the dishonest hop too
#  10. fleet soak: the fleet scheduler (`rpr fleet`, 10k stripes) must
#      drain a 10k-stripe backlog per seed and emit byte-identical JSON
#      summaries across two same-seed runs with zero arbiter
#      double-releases (docs/FLEET.md)
#  11. foreground soak: the load co-simulation (`rpr load`, 240 requests
#      against 4 staggered stripe repairs) must emit byte-identical JSON
#      summaries across two same-seed runs per mode, and the QoS-throttled
#      p99 latency must land strictly below the unthrottled p99
#      (docs/FOREGROUND.md); the QoS runs also write their trace as
#      `--format chrome`, byte-identical across runs and with entries on
#      the `tid 2` request lane
#  12. churn soak: a journaled 10k-stripe drain under live churn
#      (`rpr fleet --churn-rate --journal`) is killed -9 mid-drain
#      (RPR_JOURNAL_STALL_US stretches the write window), resumed from
#      the torn journal, and the resumed run's `"summary":{...}` must be
#      byte-identical to an uninterrupted same-seed run's, with zero
#      stripes lost at a churn rate the drain outpaces; the uninterrupted
#      run's own journal must match a pinned sha256 (docs/FLEET.md,
#      "Drains under churn" / "The journal"); a journaled per-stripe
#      storm drain (`--storm crash,timeout`, the only path that writes
#      `cost` records) is then resumed and must replay those costs to
#      the same unrepairable count and a byte-identical summary
#  13. kernel floor: `rpr kernels --json` times every GF(2^8) tier this
#      CPU offers, each pinned, in one process; every SIMD tier must fold
#      >= 4x as fast as the scalar tier, and so must the dispatched rate
#      (a broken dispatch is caught as well as a slow kernel). The same
#      process times the transport checksum (`checksum64`) and a
#      byte-serial digest over one chunk: the checksum must read >= 8x as
#      fast. Host-independent: nothing is compared with another machine
#      or another day. Three attempts; on a scalar-only CPU a note instead
#      of the fold check. See docs/PERFORMANCE.md §5.
#  14. benchmark smoke: `benchmark/` is a cargo workspace of its own, so
#      steps 1-5 never compile it. `benchmark/run.sh --quick` (< 15 s
#      after the build) builds the harness offline against the working
#      tree and runs every workload at a tenth of its size; it must exit
#      zero (every operation and invariant of every workload passed) and
#      leave `benchmark/` and BENCHMARK.json exactly as committed.
#  15. pinned tables: `rpr-experiments` regenerates the 17 simulator
#      tables (fig6-fig11, fleet, churn, ablation, foreground; < 1 s) and
#      every CSV it writes must be byte-identical to the committed one in
#      `results/`. Tables with wall-clock columns (fleet-scale, table1,
#      fig12-fig14) are left out; the foreground table's one wall-clock
#      column, `wall (s)`, is dropped on both sides before the compare.
#
# Note: `cargo doc` prints a filename-collision warning for the `rpr` CLI
# binary vs the `rpr` facade lib (cargo#6313); it is cargo's, not
# rustdoc's, and does not fail the run.

set -eu

OFFLINE=""
for arg in "$@"; do
    case "$arg" in
        --offline) OFFLINE="--offline" ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done
if [ "${CARGO_NET_OFFLINE:-}" = "true" ]; then
    OFFLINE="--offline"
fi

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo build $OFFLINE --release --workspace
run cargo build $OFFLINE --release --examples
run cargo test $OFFLINE -q --workspace
run cargo clippy $OFFLINE --workspace --all-targets -- -D warnings
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc $OFFLINE --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc $OFFLINE --no-deps --workspace

CHAOS_DIR="target/chaos"
mkdir -p "$CHAOS_DIR"
RPR="target/release/rpr"

# Step 6: cut-through streaming must strictly beat store-and-forward at
# (6,3) — the headline claim of the chunked pipeline (ECPipe §3 applied
# to RPR §3.2).
extract_time() {
    sed -n 's/^repair time \([0-9.]*\) s .*/\1/p' "$1"
}
echo "==> $RPR plan --code 6,3 --fail d1 (store-and-forward vs --chunk-size 8)"
"$RPR" plan --code 6,3 --fail d1 > "$CHAOS_DIR/plan_block.txt"
"$RPR" plan --code 6,3 --fail d1 --chunk-size 8 > "$CHAOS_DIR/plan_chunk.txt"
T_BLOCK="$(extract_time "$CHAOS_DIR/plan_block.txt")"
T_CHUNK="$(extract_time "$CHAOS_DIR/plan_chunk.txt")"
if [ -z "$T_BLOCK" ] || [ -z "$T_CHUNK" ]; then
    echo "streaming collapse check FAILED: could not parse repair times" >&2
    exit 1
fi
if ! awk "BEGIN { exit !($T_CHUNK < $T_BLOCK) }"; then
    echo "streaming collapse FAILED: chunked $T_CHUNK s not below block-level $T_BLOCK s" >&2
    exit 1
fi
echo "==> streamed makespan $T_CHUNK s < store-and-forward $T_BLOCK s"

# Step 7: the repair supervisor must drive the acceptance storm — a helper
# crash, a crash of its replacement, then a timeout — and the one-crash
# storm `rpr inject` runs to completion on the simulator, deterministically:
# two runs per seed must produce the same one-line JSON summary and a
# byte-identical trace, with and without cut-through streaming.
for storm in crash,replacement-crash,timeout crash; do
    case "$storm" in
        crash) TAG=crash; REPLANS=1 ;;
        *) TAG=storm; REPLANS=2 ;;
    esac
    for seed in 17 4242; do
        for mode in block chunk; do
            if [ "$mode" = chunk ]; then CHUNK="--chunk-size 8"; else CHUNK=""; fi
            OUT="$CHAOS_DIR/${TAG}_s${seed}_${mode}"
            for rep in a b; do
                echo "==> $RPR chaos --code 6,3 --fail d1 --storm $storm --seed $seed $CHUNK (run $rep)"
                "$RPR" chaos --code 6,3 --fail d1 --storm "$storm" --seed "$seed" $CHUNK \
                    --json --out "${OUT}_${rep}.jsonl" > "${OUT}_${rep}.json" 2>/dev/null
            done
            for rep in a b; do
                if ! grep -q "\"replans\":$REPLANS" "${OUT}_${rep}.json"; then
                    echo "chaos soak FAILED: seed $seed ($mode) storm $storm did not replan $REPLANS time(s)" >&2
                    exit 1
                fi
            done
            if ! cmp -s "${OUT}_a.jsonl" "${OUT}_b.jsonl"; then
                echo "chaos soak FAILED: seed $seed ($mode) storm $storm traces differ" >&2
                exit 1
            fi
            if ! cmp -s "${OUT}_a.json" "${OUT}_b.json"; then
                echo "chaos soak FAILED: seed $seed ($mode) storm $storm summaries differ" >&2
                exit 1
            fi
            echo "==> supervised storm $storm for seed $seed ($mode) completed deterministically"
        done
    done
done
# The same storm through the Chrome exporter: byte-stable and a parseable
# document (docs/TRACING.md, "Format 2").
for rep in a b; do
    "$RPR" chaos --code 6,3 --fail d1 --storm crash,replacement-crash,timeout --seed 17 \
        --format chrome --out "$CHAOS_DIR/storm_s17_block_${rep}.chrome.json" >/dev/null 2>&1
done
if ! cmp -s "$CHAOS_DIR/storm_s17_block_a.chrome.json" "$CHAOS_DIR/storm_s17_block_b.chrome.json"; then
    echo "chaos soak FAILED: seed 17 (block) storm Chrome traces differ" >&2
    exit 1
fi
if ! jq -e '.traceEvents | length > 0' "$CHAOS_DIR/storm_s17_block_a.chrome.json" >/dev/null; then
    echo "chaos soak FAILED: Chrome trace is not a JSON document with traceEvents" >&2
    exit 1
fi
echo "==> supervised storm for seed 17 (block) renders a byte-stable Chrome trace"
# The clean trace's event count: derived from the ring, not mirrored.
for mode in block chunk; do
    if [ "$mode" = chunk ]; then CHUNK="--chunk-size 8"; else CHUNK=""; fi
    OUT="$CHAOS_DIR/trace_${mode}"
    for rep in a b; do
        echo "==> $RPR trace --code 6,3 --fail d1 --format jsonl $CHUNK (run $rep)"
        "$RPR" trace --code 6,3 --fail d1 --format jsonl $CHUNK \
            > "${OUT}_${rep}.jsonl" 2> "${OUT}_${rep}.err"
    done
    for stream in jsonl err; do
        if ! cmp -s "${OUT}_a.$stream" "${OUT}_b.$stream"; then
            echo "trace count FAILED: $mode trace $stream differs across runs" >&2
            exit 1
        fi
    done
    LINES="$(wc -l < "${OUT}_a.jsonl" | tr -d ' ')"
    COUNTED="$(sed -n 's/.*| \([0-9]*\) events (0 dropped)$/\1/p' "${OUT}_a.err")"
    if [ -z "$COUNTED" ] || [ "$COUNTED" != "$LINES" ]; then
        echo "trace count FAILED: $mode summary says '${COUNTED:-?} events (0 dropped)', stdout has $LINES lines" >&2
        exit 1
    fi
    echo "==> clean $mode trace: $LINES events, 0 dropped, byte-stable on both streams"
done

# Step 8: the executor runs every op through one streamed runner; drive it
# under the same storm on real bytes in both of its regimes, and over a
# ragged sub-MiB chunk split whose tail is shorter than the rest.
for CHUNK in "" "--chunk-size 1" "--chunk-size 768K"; do
    echo "==> $RPR chaos --code 6,3 --fail d1 --storm crash,replacement-crash,timeout --seed 17 --backend exec --block-mib 4 $CHUNK"
    "$RPR" chaos --code 6,3 --fail d1 --storm crash,replacement-crash,timeout --seed 17 \
        --backend exec --block-mib 4 $CHUNK --json > "$CHAOS_DIR/exec_storm.json" 2>/dev/null
    for want in '"verified":true' '"replans":2'; do
        if ! grep -q "$want" "$CHAOS_DIR/exec_storm.json"; then
            echo "exec soak FAILED: storm on real bytes ($CHUNK) lacks $want" >&2
            exit 1
        fi
    done
done
echo "==> supervised storm on real bytes verified, store-and-forward and cut-through"

# Step 9: the proof plane must convict a Byzantine helper. A seeded lie
# storm — wrong bytes under a valid transport checksum — must complete in
# Mandatory mode with the liar accused and quarantined on proof evidence
# (never a transport retry), the trace and ledger must be byte-identical
# across two same-seed runs, and the offline auditor must independently
# verify the ledger against the trace and localize the dishonest hop.
for seed in 21 77; do
    for rep in a b; do
        echo "==> $RPR chaos --code 6,3 --fail d1 --storm lie --proof mandatory --seed $seed (run $rep)"
        "$RPR" chaos --code 6,3 --fail d1 --storm lie --proof mandatory \
            --seed "$seed" --json \
            --out "$CHAOS_DIR/lie_s${seed}_${rep}.jsonl" \
            --ledger-out "$CHAOS_DIR/lie_s${seed}_${rep}.ledger.jsonl" \
            > "$CHAOS_DIR/lie_s${seed}_${rep}.json" 2>/dev/null
    done
    for rep in a b; do
        if ! grep -q '"accusations":1' "$CHAOS_DIR/lie_s${seed}_${rep}.json"; then
            echo "byzantine soak FAILED: seed $seed did not convict the liar" >&2
            exit 1
        fi
        if ! grep -q '"retries":0' "$CHAOS_DIR/lie_s${seed}_${rep}.json"; then
            echo "byzantine soak FAILED: seed $seed lie leaked into transport retry" >&2
            exit 1
        fi
        if ! grep -q '"type":"helper_accused"' "$CHAOS_DIR/lie_s${seed}_${rep}.jsonl"; then
            echo "byzantine soak FAILED: seed $seed trace has no accusation event" >&2
            exit 1
        fi
    done
    if ! cmp -s "$CHAOS_DIR/lie_s${seed}_a.jsonl" "$CHAOS_DIR/lie_s${seed}_b.jsonl"; then
        echo "byzantine soak FAILED: seed $seed traces differ" >&2
        exit 1
    fi
    if ! cmp -s "$CHAOS_DIR/lie_s${seed}_a.ledger.jsonl" \
                "$CHAOS_DIR/lie_s${seed}_b.ledger.jsonl"; then
        echo "byzantine soak FAILED: seed $seed proof ledgers differ" >&2
        exit 1
    fi
    echo "==> $RPR audit --trace lie_s${seed}_a.jsonl --ledger lie_s${seed}_a.ledger.jsonl"
    if ! "$RPR" audit --trace "$CHAOS_DIR/lie_s${seed}_a.jsonl" \
            --ledger "$CHAOS_DIR/lie_s${seed}_a.ledger.jsonl" --json \
            > "$CHAOS_DIR/lie_s${seed}_audit.json" 2>/dev/null; then
        echo "byzantine soak FAILED: seed $seed offline audit rejected the run" >&2
        exit 1
    fi
    if ! grep -q '"verdict":"dishonesty-localized"' "$CHAOS_DIR/lie_s${seed}_audit.json"; then
        echo "byzantine soak FAILED: seed $seed audit did not localize the liar" >&2
        exit 1
    fi
    echo "==> byzantine storm for seed $seed: convicted, deterministic, audited offline"
done
# The executor builds its proofs with the same builder and convicts by the
# same rule over keyed hashes of real bytes: its ledger must audit alike.
echo "==> $RPR chaos --backend exec --block-mib 4 --code 6,3 --fail d1 --storm lie --proof mandatory"
"$RPR" chaos --backend exec --block-mib 4 --code 6,3 --fail d1 --storm lie \
    --proof mandatory --json --out "$CHAOS_DIR/lie_exec.jsonl" \
    --ledger-out "$CHAOS_DIR/lie_exec.ledger.jsonl" > "$CHAOS_DIR/lie_exec.json" 2>/dev/null
for want in '"accusations":1' '"verified":true'; do
    if ! grep -q "$want" "$CHAOS_DIR/lie_exec.json"; then
        echo "byzantine soak FAILED: exec lie storm summary lacks $want" >&2
        exit 1
    fi
done
if ! "$RPR" audit --trace "$CHAOS_DIR/lie_exec.jsonl" \
        --ledger "$CHAOS_DIR/lie_exec.ledger.jsonl" --json \
        > "$CHAOS_DIR/lie_exec_audit.json" 2>/dev/null ||
    ! grep -q '"verdict":"dishonesty-localized"' "$CHAOS_DIR/lie_exec_audit.json"; then
    echo "byzantine soak FAILED: the exec ledger did not audit to a localized liar" >&2
    exit 1
fi
echo "==> byzantine storm on real bytes: convicted, verified, audited offline"

# Step 10: the fleet scheduler must drain a bounded 10k-stripe backlog to
# completion and do so bit-deterministically — two same-seed runs of
# `rpr fleet` must print byte-identical JSON summaries.
for seed in 17 4242; do
    for rep in a b; do
        echo "==> $RPR fleet --code 6,3 --stripes 10000 --seed $seed --json (run $rep)"
        "$RPR" fleet --code 6,3 --stripes 10000 --seed "$seed" --json \
            > "$CHAOS_DIR/fleet_s${seed}_${rep}.json" 2>/dev/null
    done
    for rep in a b; do
        if ! grep -q '"repaired":10000' "$CHAOS_DIR/fleet_s${seed}_${rep}.json"; then
            echo "fleet soak FAILED: seed $seed did not repair all 10000 stripes" >&2
            exit 1
        fi
        if ! grep -q '"mismatched_releases":0' "$CHAOS_DIR/fleet_s${seed}_${rep}.json"; then
            echo "fleet soak FAILED: seed $seed arbiter saw mismatched releases" >&2
            exit 1
        fi
    done
    if ! cmp -s "$CHAOS_DIR/fleet_s${seed}_a.json" \
                "$CHAOS_DIR/fleet_s${seed}_b.json"; then
        echo "fleet soak FAILED: seed $seed summaries differ" >&2
        exit 1
    fi
    echo "==> fleet drain for seed $seed completed deterministically"
done

# Step 11: foreground traffic under repair must be deterministic and the
# QoS class must actually protect the client tail — per seed, each mode's
# two same-seed summaries must be byte-identical, and the QoS p99 must be
# strictly below the unthrottled p99 at the (6,3) paper config.
extract_p99() {
    sed -n 's/.*"latency_p99":\([0-9.e+-]*\).*/\1/p' "$1"
}
for seed in 17 4242; do
    for mode in unthrottled qos; do
        for rep in a b; do
            echo "==> $RPR load --code 6,3 --mode $mode --seed $seed --json (run $rep)"
            "$RPR" load --code 6,3 --mode "$mode" --seed "$seed" --json \
                > "$CHAOS_DIR/load_s${seed}_${mode}_${rep}.json" 2>/dev/null
        done
        if ! cmp -s "$CHAOS_DIR/load_s${seed}_${mode}_a.json" \
                    "$CHAOS_DIR/load_s${seed}_${mode}_b.json"; then
            echo "foreground soak FAILED: seed $seed ($mode) summaries differ" >&2
            exit 1
        fi
    done
    # The request lane through the Chrome exporter, QoS mode.
    for rep in a b; do
        "$RPR" load --code 6,3 --mode qos --seed "$seed" --format chrome \
            --out "$CHAOS_DIR/load_s${seed}_qos_${rep}.chrome.json" >/dev/null 2>&1
    done
    if ! cmp -s "$CHAOS_DIR/load_s${seed}_qos_a.chrome.json" \
                "$CHAOS_DIR/load_s${seed}_qos_b.chrome.json"; then
        echo "foreground soak FAILED: seed $seed (qos) Chrome traces differ" >&2
        exit 1
    fi
    if ! jq -e '[.traceEvents[] | select(.cat == "load" and .tid == 2)] | length > 0' \
            "$CHAOS_DIR/load_s${seed}_qos_a.chrome.json" >/dev/null; then
        echo "foreground soak FAILED: seed $seed Chrome trace has no request lane" >&2
        exit 1
    fi
    P99_UNTH="$(extract_p99 "$CHAOS_DIR/load_s${seed}_unthrottled_a.json")"
    P99_QOS="$(extract_p99 "$CHAOS_DIR/load_s${seed}_qos_a.json")"
    if [ -z "$P99_UNTH" ] || [ -z "$P99_QOS" ]; then
        echo "foreground soak FAILED: could not parse p99 latencies" >&2
        exit 1
    fi
    if ! awk "BEGIN { exit !($P99_QOS < $P99_UNTH) }"; then
        echo "foreground soak FAILED: seed $seed QoS p99 $P99_QOS not below unthrottled $P99_UNTH" >&2
        exit 1
    fi
    echo "==> foreground soak for seed $seed: QoS p99 $P99_QOS < unthrottled $P99_UNTH"
done

# Step 12: a drain must survive a crash of the repair process itself.
# Journal a churned 10k-stripe drain with stretched journal writes, kill
# it -9 mid-drain, resume from the torn journal, and demand the resumed
# summary be byte-identical to an uninterrupted same-seed run's — with
# zero permanent losses at a churn rate the drain outpaces.
CHURN_FLAGS="--code 6,3 --stripes 10000 --seed 17 --churn-rate 0.002"
echo "==> $RPR fleet $CHURN_FLAGS --journal (killed -9 mid-drain)"
rm -f "$CHAOS_DIR/churn_journal.jsonl"
RPR_JOURNAL_STALL_US=200 "$RPR" fleet $CHURN_FLAGS \
    --journal "$CHAOS_DIR/churn_journal.jsonl" --json \
    > "$CHAOS_DIR/churn_killed.json" 2>/dev/null &
CHURN_PID=$!
sleep 3
kill -9 "$CHURN_PID" 2>/dev/null || {
    echo "churn soak FAILED: drain finished before the kill (stall too short)" >&2
    exit 1
}
wait "$CHURN_PID" 2>/dev/null || true
if [ ! -s "$CHAOS_DIR/churn_journal.jsonl" ]; then
    echo "churn soak FAILED: killed drain left no journal" >&2
    exit 1
fi
echo "==> $RPR fleet $CHURN_FLAGS --journal (uninterrupted reference run)"
"$RPR" fleet $CHURN_FLAGS --journal "$CHAOS_DIR/churn_clean.jsonl" --json \
    > "$CHAOS_DIR/churn_clean.json" 2>/dev/null
# Group commit moves when journal bytes reach the file, never which
# bytes: the complete journal is pinned to its digest.
CHURN_JOURNAL_SHA256=d237e9a8e77fe66e8b20f95162e2e2ac073c249ef15fc24394e4b973f5556dc4
CHURN_JOURNAL_GOT=$(sha256sum "$CHAOS_DIR/churn_clean.jsonl" | cut -d' ' -f1)
if [ "$CHURN_JOURNAL_GOT" != "$CHURN_JOURNAL_SHA256" ]; then
    echo "churn soak FAILED: reference journal sha256 $CHURN_JOURNAL_GOT, want $CHURN_JOURNAL_SHA256" >&2
    exit 1
fi
echo "==> $RPR fleet $CHURN_FLAGS --resume churn_journal.jsonl"
"$RPR" fleet $CHURN_FLAGS --resume "$CHAOS_DIR/churn_journal.jsonl" --json \
    > "$CHAOS_DIR/churn_resumed.json" 2>/dev/null
grep -o '"summary":{[^}]*}' "$CHAOS_DIR/churn_clean.json" > "$CHAOS_DIR/churn_clean.summary"
grep -o '"summary":{[^}]*}' "$CHAOS_DIR/churn_resumed.json" > "$CHAOS_DIR/churn_resumed.summary"
if [ ! -s "$CHAOS_DIR/churn_clean.summary" ] || [ ! -s "$CHAOS_DIR/churn_resumed.summary" ]; then
    echo "churn soak FAILED: could not extract summaries" >&2
    exit 1
fi
if ! cmp -s "$CHAOS_DIR/churn_clean.summary" "$CHAOS_DIR/churn_resumed.summary"; then
    echo "churn soak FAILED: resumed summary differs from the uninterrupted run" >&2
    exit 1
fi
if ! grep -q '"repaired":10000' "$CHAOS_DIR/churn_clean.summary"; then
    echo "churn soak FAILED: drain did not repair all 10000 stripes" >&2
    exit 1
fi
if ! grep -q '"lost":0' "$CHAOS_DIR/churn_clean.summary"; then
    echo "churn soak FAILED: outpaceable churn rate still lost stripes" >&2
    exit 1
fi
echo "==> churn soak: killed -9 mid-drain, resumed bit-identically, 0 lost"
# The drain above is storm-free, so its journal holds no `cost` record and
# its resume re-derives every cost. A per-stripe storm is what `--resume`
# exists to skip: journal one, resume from it, and demand that the second
# run replays costs instead of simulating and prints the same object —
# unrepairable count and summary included — but for `replayed`.
STORM_FLAGS="--code 6,3 --stripes 2000 --seed 17 --storm crash,timeout"
echo "==> $RPR fleet $STORM_FLAGS --journal, then --resume"
"$RPR" fleet $STORM_FLAGS --journal "$CHAOS_DIR/storm_journal.jsonl" --json \
    > "$CHAOS_DIR/storm_first.json" 2>/dev/null
"$RPR" fleet $STORM_FLAGS --resume "$CHAOS_DIR/storm_journal.jsonl" --json \
    > "$CHAOS_DIR/storm_resumed.json" 2>/dev/null
for kind in cost unrepairable; do
    if ! grep -q "\"rec\":\"$kind\"" "$CHAOS_DIR/storm_journal.jsonl"; then
        echo "churn soak FAILED: the storm journal holds no $kind record" >&2
        exit 1
    fi
done
if ! grep -q '"replayed":0,' "$CHAOS_DIR/storm_first.json" ||
    ! grep -q '"replayed":[1-9]' "$CHAOS_DIR/storm_resumed.json"; then
    echo "churn soak FAILED: the resumed storm drain did not replay journaled costs" >&2
    exit 1
fi
for run in first resumed; do
    sed 's/"replayed":[0-9]*,//' "$CHAOS_DIR/storm_$run.json" > "$CHAOS_DIR/storm_$run.rest"
done
if ! grep -q '"unrepairable":[1-9].*"summary":{' "$CHAOS_DIR/storm_first.rest" ||
    ! cmp -s "$CHAOS_DIR/storm_first.rest" "$CHAOS_DIR/storm_resumed.rest"; then
    echo "churn soak FAILED: resumed storm drain's unrepairable count or summary differs" >&2
    exit 1
fi
echo "==> churn soak: storm drain resumed from journaled costs, summary byte-identical"

# Step 13: the GF kernels and the transport checksum must not silently
# rot, on whatever host this runs. `rpr kernels --json` times every tier
# the CPU offers, pinned, in one process; each SIMD tier must fold at least
# 4x as fast as the scalar tier, and so must the dispatched rate unless
# RPR_FORCE_SCALAR pinned it (a broken dispatch reads as scalar speed). The
# same process times `checksum64` and a byte-serial digest over one chunk:
# the word-wide checksum must read at least 8x as fast (readings 22-26).
# The windows are well under a millisecond, so a miss gets two retries
# before it counts. A scalar-only CPU has no tier to hold the folds
# against; the checksum is held either way.
KERNEL_FLOOR='
    def gbps: . / 1e7 | round / 100;
    ( select(.available != ["scalar"])
      | 4 as $x | .tier_bytes_per_sec as $t | $t.scalar as $s
      | ($t | to_entries[] | select(.key != "scalar")),
        (select(.forced_scalar | not) | {key: "dispatched \(.active)", value: .gf_bytes_per_sec})
      | select(.value < $x * $s)
      | "\(.key) folds \(.value | gbps) GB/s, under \($x)x the scalar tier (\($s | gbps) GB/s)" ),
    ( 8 as $x | .checksum_bytes_per_sec as $c | .byte_serial_checksum_bytes_per_sec as $b
      | select($c < $x * $b)
      | "the transport checksum reads \($c | gbps) GB/s, under \($x)x the byte-serial digest (\($b | gbps) GB/s)" )'
for attempt in 1 2 3; do
    echo "==> $RPR kernels --json (kernel floor, attempt $attempt)"
    KERNELS="$("$RPR" kernels --json)"
    SLOW="$(echo "$KERNELS" | jq -r "$KERNEL_FLOOR")"
    if [ -z "$SLOW" ]; then break; fi
done
if [ -n "$SLOW" ]; then
    echo "kernel floor FAILED on three attempts: $SLOW" >&2
    exit 1
fi
if [ "$(echo "$KERNELS" | jq -c .available)" = '["scalar"]' ]; then
    echo "==> kernel floor: this CPU offers only the scalar tier, no fold to hold it against"
else
    echo "==> kernel floor: every SIMD tier and the dispatch fold >= 4x the scalar tier"
fi
echo "==> checksum floor: the transport checksum reads >= 8x a byte-serial digest"

# Step 14: an API slip that breaks the benchmark harness must fail here,
# not in the PR driver. The harness always builds offline.
echo "==> benchmark/run.sh --quick"
if ! benchmark/run.sh --quick >/dev/null; then
    echo "benchmark smoke FAILED: the harness did not build or a workload failed" >&2
    exit 1
fi
if [ -n "$(git status --porcelain benchmark BENCHMARK.json)" ]; then
    echo "benchmark smoke FAILED: the run changed benchmark/ or BENCHMARK.json:" >&2
    git status --porcelain benchmark BENCHMARK.json >&2
    exit 1
fi
echo "==> benchmark harness builds, runs, and leaves its files untouched"

# Step 15: the committed simulator tables are a behaviour pin. Regenerate
# every table with no wall-clock column and demand byte identity.
RESULTS_DIR="$CHAOS_DIR/results"
rm -rf "$RESULTS_DIR"
mkdir -p "$RESULTS_DIR"
echo "==> rpr-experiments fig6 .. fig11 fleet churn ablation foreground --out $RESULTS_DIR"
target/release/rpr-experiments fig6 fig7 fig8 fig9 fig10 fig11 fleet churn ablation foreground \
    --out "$RESULTS_DIR" >/dev/null
# The foreground table ends in a wall-clock column, `wall (s)`, which
# varies with the host: every other column of it is pinned.
without_wall() {
    awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) if ($i == "wall (s)") w = i }
        { s = ""; for (i = 1; i <= NF; i++) if (i != w) s = s (s == "" ? "" : ",") $i; print s }' "$1"
}
TABLES=0
for csv in "$RESULTS_DIR"/*.csv; do
    without_wall "$csv" > "$CHAOS_DIR/table.regenerated"
    without_wall "results/$(basename "$csv")" > "$CHAOS_DIR/table.committed"
    if ! cmp -s "$CHAOS_DIR/table.regenerated" "$CHAOS_DIR/table.committed"; then
        echo "pinned tables FAILED: $(basename "$csv") differs from results/" >&2
        exit 1
    fi
    TABLES=$((TABLES + 1))
done
if [ "$TABLES" -ne 17 ]; then
    echo "pinned tables FAILED: expected 17 tables, rpr-experiments wrote $TABLES" >&2
    exit 1
fi
echo "==> pinned tables: all $TABLES regenerated CSVs match results/ byte for byte"

echo "==> verify OK"
