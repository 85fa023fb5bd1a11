#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, tests.
#
# Library and binary code must be panic-free on the unwrap path
# (`clippy::unwrap_used` denied); tests may unwrap/expect freely
# (allow-unwrap-in-tests in clippy.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> clippy (lib + bins, unwrap_used denied)"
# Also the "no capability without a caller" gate: everything below `pub`
# in the product crates is `pub(crate)` or private, so `dead_code` under
# `-D warnings` fails here when an item loses its last shipped caller.
cargo clippy --workspace --lib --bins -- -D warnings -D clippy::unwrap_used

echo "==> clippy (tests, benches, examples)"
cargo clippy --workspace --tests --benches --examples -- -D warnings

echo "==> ah-lint (house rules, warnings denied)"
# First-party static analysis (crates/lint): panic-path, atomic-ordering,
# unsafe-safety-comment, doc-header, unsafe-forbid, metric-name — see
# ARCHITECTURE.md §9. Suppressions require written reasons; an unknown
# or reasonless suppression is itself a finding. metric-name validates
# every string literal passed to an ah_obs registration function against
# ah_obs::valid_metric_name before the code ever runs; the runtime JSONL
# check below still covers dynamically-built names.
cargo run -q --release -p ah-lint -- --deny-warnings

echo "==> ah-lint (markdown links + anchors)"
# Nothing compiles markdown, so renamed files and sections strand
# cross-references silently; the doc-link pass (crates/lint/src/mdcheck.rs)
# resolves every relative link and #anchor in every *.md of the repo.
# External http(s) targets are skipped — CI does not touch the network.
cargo run -q --release -p ah-lint -- --md --deny-warnings

echo "==> rustdoc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> ablation tables run"
# The one bench target left is a plain main() that prints the
# EXPERIMENTS.md §Ablations tables; run it so the tables stay printable.
cargo bench -q --bench ablation >/dev/null

echo "==> build (release)"
cargo build --release --workspace

echo "==> tests"
# Unit, integration and doc tests of every workspace member (the rustdoc
# examples of the ring and WAL APIs are executable and run here).
cargo test --workspace -q

echo "==> telemetry determinism gate"
# The full matrix (serial/8-shard x clean/faulted, metrics on vs off,
# snapshot schemas, ledger cross-checks) lives in tests/telemetry.rs;
# run it by name so a filtered `cargo test` invocation elsewhere can
# never silently drop it.
cargo test --release --test telemetry -q

echo "==> ring model checks: SPSC (exhaustive, release)"
# vendor/interleave explores every interleaving of the SPSC dispatch
# ring's lifecycle within the configured bounds: the ring must be
# clean, and each of the six seeded ordering mutants must be caught
# with a replayable counterexample. The heavy clean-ring tests are
# ignored in debug builds and only run here, in release.
cargo test --release -p ah-simnet --test model_check -q

echo "==> packet-stream identity (release)"
# Every field of every packet three scenarios emit, hashed against
# constants pinned before the generator's per-packet cost work
# (ARCHITECTURE.md §7): an RNG draw added, dropped or reordered, or a
# mux tie resolved differently, moves a hash here. Beside it, the lane
# mux against its 30-line reference merge over populations that sit on
# the lane edges (empty, LANE-1, LANE, LANE+1, several lanes, ties
# everywhere), packet by packet and batch by batch. Named so a filtered
# `cargo test` elsewhere can never drop them.
cargo test --release -p ah-simnet --test stream_golden --test mux_equivalence -q

echo "==> WAL crash-recovery gate"
# Durability drill with a real process kill: run the durable engine and
# have it abort mid-write (--crash-after leaves a deliberately torn,
# unsynced tail), then resume from the recovered log and replay the
# sealed result. Both must print the exact output fingerprint of an
# uninterrupted run — the bitwise replay/resume contract of
# ARCHITECTURE.md §10, checked on the shipped binary.
WAL_DIR="$(mktemp -d)/wal"
run_bin=(target/release/aggressive-scanners --days 1 --threads 4)
# The untelemetered, unjournaled baseline every binary-level gate below
# (WAL, trace, memory) compares against: computed once.
fp_base=$("${run_bin[@]}" 2>/dev/null | awk -F': ' '/^output fingerprint/{print $2}')
[ -n "$fp_base" ] || { echo "error: baseline run printed no fingerprint"; exit 1; }
if "${run_bin[@]}" --wal-dir "$WAL_DIR" --crash-after 2500 >/dev/null 2>&1; then
  echo "error: --crash-after was expected to abort the process"
  exit 1
fi
# An interruption point inside the recovered prefix (~2499 packets here)
# must be refused before anything is re-driven, leaving the log as
# recovered — the real resume below then proves it still resumes.
if "${run_bin[@]}" --wal-dir "$WAL_DIR" --resume --suspend-after 1 >/dev/null 2>&1; then
  echo "error: --resume --suspend-after 1 was expected to be rejected (point inside the recovered prefix)"
  exit 1
fi
fp_resume=$("${run_bin[@]}" --wal-dir "$WAL_DIR" --resume 2>/dev/null \
  | awk -F': ' '/^output fingerprint/{print $2}')
fp_replay=$("${run_bin[@]}" --wal-dir "$WAL_DIR" --replay 2>/dev/null \
  | awk -F': ' '/^output fingerprint/{print $2}')
rm -rf "$(dirname "$WAL_DIR")"
if [ "$fp_resume" != "$fp_base" ] || [ "$fp_replay" != "$fp_base" ]; then
  echo "error: crash-recovery fingerprints diverged:"
  echo "    uninterrupted $fp_base"
  echo "    resumed       ${fp_resume:-<none>}"
  echo "    replayed      ${fp_replay:-<none>}"
  exit 1
fi
echo "    crashed, resumed and replayed runs all fingerprint $fp_base"

echo "==> metrics schema lint"
# Emit a real snapshot from the release binary and lint every exported
# metric name against the naming scheme `ah_<crate>_<subsystem>_<name>`
# (>= 4 lowercase alnum segments, first segment "ah") — the same rule
# ah_obs::valid_metric_name enforces, checked here on the file actually
# written to disk.
METRICS_DIR="$(mktemp -d)"
trap 'rm -rf "$METRICS_DIR"' EXIT
target/release/aggressive-scanners --metrics "$METRICS_DIR/metrics" \
  --metrics-interval 100000 --days 1 --threads 4 >/dev/null
for f in "$METRICS_DIR/metrics.jsonl" "$METRICS_DIR/metrics.prom"; do
  [ -s "$f" ] || { echo "error: $f missing or empty"; exit 1; }
done
bad=$(grep -oE '"name":"[^"]+"' "$METRICS_DIR/metrics.jsonl" | sed 's/"name":"//;s/"//' \
  | sort -u | grep -vE '^ah(_[a-z0-9]+){3,}$' || true)
if [ -n "$bad" ]; then
  echo "error: exported metric names violate ah_<crate>_<subsystem>_<name>:"
  echo "$bad"
  exit 1
fi
bad=$(awk '/^# TYPE /{print $3}' "$METRICS_DIR/metrics.prom" \
  | grep -vE '^ah(_[a-z0-9]+){3,}$' || true)
if [ -n "$bad" ]; then
  echo "error: Prometheus TYPE names violate the scheme:"
  echo "$bad"
  exit 1
fi
echo "    $(grep -oE '"name":"[^"]+"' "$METRICS_DIR/metrics.jsonl" | sort -u | wc -l) metric names conform"

echo "==> trace gate"
# Tracing is observation-only (ARCHITECTURE.md §12). First the full
# determinism + schema matrix (tests/trace.rs) by name, so a filtered
# `cargo test` elsewhere can never drop it; then the shipped binary: a
# traced durable run must emit a Chrome trace that passes the
# first-party validator (target/release/ah-trace) with sampled packet
# journeys, the dispatcher-to-detector span chain and WAL I/O spans —
# while printing the exact output fingerprint of an untraced run.
cargo test --release --test trace -q
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$METRICS_DIR" "$TRACE_DIR"' EXIT
# Sample 1-in-32 sources: dense enough for journeys at every layer,
# sparse enough that the bounded per-thread buffers keep the end-of-run
# detector spans on a 1-day traced WAL run.
fp_traced=$("${run_bin[@]}" --wal-dir "$TRACE_DIR/wal" \
  --trace-out "$TRACE_DIR/trace.json" --trace-sample 32 2>/dev/null \
  | awk -F': ' '/^output fingerprint/{print $2}')
if [ "$fp_traced" != "$fp_base" ]; then
  echo "error: tracing changed the output fingerprint:"
  echo "    untraced $fp_base"
  echo "    traced   ${fp_traced:-<none>}"
  exit 1
fi
[ -s "$TRACE_DIR/trace.folded" ] || { echo "error: folded-stack export missing or empty"; exit 1; }
target/release/ah-trace check "$TRACE_DIR/trace.json" --require-journey \
  --require ah_pipeline_dispatch_route --require ah_pipeline_shard_consume \
  --require ah_pipeline_vantage_consume --require ah_telescope_capture_observe \
  --require ah_pipeline_detector_ingest --require ah_pipeline_wal_append \
  --require ah_wal_writer_commit --require ah_wal_writer_fsync
echo "    traced and untraced runs both fingerprint $fp_base"

echo "==> memory gate"
# Tagged-allocator accounting is observation-only (ARCHITECTURE.md §13).
# First the full determinism + leak matrix (tests/memory.rs) by name, so
# a filtered `cargo test` elsewhere can never drop it; then the shipped
# binary: a run with --mem-report must print the exact output
# fingerprint of a plain run, print a per-tag memory report with a
# nonzero peak RSS, and pass its own end-of-run leak check (every
# run-scoped tag drained back to ~0 live bytes after the output drops).
cargo test --release --test memory -q
MEM_DIR="$(mktemp -d)"
trap 'rm -rf "$METRICS_DIR" "$TRACE_DIR" "$MEM_DIR"' EXIT
"${run_bin[@]}" --mem-report >"$MEM_DIR/report.txt" 2>&1 \
  || { echo "error: --mem-report run failed (leak check?)"; cat "$MEM_DIR/report.txt"; exit 1; }
fp_accounted=$(awk -F': ' '/^output fingerprint/{print $2}' "$MEM_DIR/report.txt")
if [ "$fp_accounted" != "$fp_base" ]; then
  echo "error: memory accounting changed the output fingerprint:"
  echo "    unaccounted $fp_base"
  echo "    accounted   ${fp_accounted:-<none>}"
  exit 1
fi
grep -q '^\[mem\] leak check ok' "$MEM_DIR/report.txt" \
  || { echo "error: leak check line missing from --mem-report output"; exit 1; }
rss=$(awk '/^peak rss/{print $(NF-1); exit}' "$MEM_DIR/report.txt")
case "$rss" in (''|0) echo "error: peak RSS missing or zero in memory report"; exit 1;; esac
echo "    accounted and unaccounted runs both fingerprint $fp_base; peak rss $rss bytes"

echo "==> mutation gate"
# The curated sentinel set (ARCHITECTURE.md §14): 15 token-level
# mutants at the load-bearing decision points — ring memory orderings,
# WAL CRC/truncation/seal handling, detector thresholds, aggregator
# boundary comparisons — each applied to a scratch copy of the tree and
# run against its explicit kill command. Every sentinel must come back
# *caught*; a survivor (or a detached sentinel whose site moved) fails
# the gate, under a hard wall-clock budget.
cargo run -q -p ah-mutate -- --budget 2400 \
  || { echo "error: mutation sentinel gate failed (see survivors above)"; exit 1; }

echo "CI gate passed."
