#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, tests.
#
# Library and binary code must be panic-free (`unwrap`, `expect`,
# `panic!`, `unreachable!`, `todo!`, `unimplemented!` denied; an audited
# exception is an `#[expect(clippy::…, reason = "…")]`); tests may
# unwrap/expect freely (allow-*-in-tests in clippy.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> clippy (lib + bins, house rules denied)"
# The house rules (ARCHITECTURE.md §9): no panic paths, every `unsafe`
# block argued for in a `// SAFETY:` comment (`missing_safety_doc`, on by
# default, wants a `# Safety` section on every unsafe fn), `unsafe_code`
# only where a module allows it with a reason, and docs on everything
# public. Under `-D warnings` an `#[expect]` that no longer fires fails
# too (`unfulfilled_lint_expectations`). Also the "no capability without
# a caller" gate: everything below `pub` in the product crates — items
# and struct fields alike — is `pub(crate)` or private, so `dead_code`
# fails here when an item loses its last shipped caller or a field its
# last reader.
cargo clippy --workspace --lib --bins -- -D warnings \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
  -D clippy::unreachable -D clippy::todo -D clippy::unimplemented \
  -D clippy::undocumented_unsafe_blocks -D unsafe_code -D missing_docs

echo "==> clippy (tests, benches, examples)"
cargo clippy --workspace --tests --benches --examples -- -D warnings

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

echo "==> detection against its reference (release)"
# ah-core's proptests hold Detector::finalize to a naive reference
# detector written from PAPER.md §1 (every report field, on key-sorted,
# shuffled, ICMP and multi-day events); tests/definitions.rs holds the
# three definitions' set relations over a generated run. By name, so a
# filtered `cargo test` elsewhere can never drop the detection checks.
cargo test --release -p ah-core --test proptests -q
cargo test --release --test definitions -q

echo "==> house rules clippy cannot see"
# tests/repo_rules.rs: every module opens with a `//!` doc block, every
# Relaxed/SeqCst ordering is justified by an ORDERING:/SAFETY: comment,
# no Acquire/Release/AcqRel is written by hand (hand-offs go through std),
# every `#[expect]` carries a reason, and every relative link and #anchor
# in every *.md of the repo resolves. Part of tier-1 `cargo test`; by
# name, so a filtered invocation elsewhere can never drop it.
cargo test --release --test repo_rules -q

echo "==> telemetry determinism gate"
# The full matrix (serial/8-shard x clean/faulted, metrics on vs off,
# snapshot schemas, ledger cross-checks) lives in tests/telemetry.rs;
# run it by name so a filtered `cargo test` invocation elsewhere can
# never silently drop it.
cargo test --release --test telemetry -q

echo "==> shard hand-off contract (release)"
# The ring the sharded engine hands batches over (std's bounded channel
# under ah_simnet::ring): FIFO, completeness, back-pressure at exactly
# the capacity, an occupancy mark that never passes it, close-then-drain,
# and a producer that a dead consumer cannot wedge. Optimised, so the
# cross-thread tests race at full speed; by name, so a filtered `cargo
# test` elsewhere can never drop them.
cargo test --release -p ah-simnet --test ring_proptests -q
cargo test --release -p ah-simnet --lib ring -q

echo "==> packet-stream identity (release)"
# Every field of every packet three scenarios emit, hashed against
# constants pinned before the generator's per-packet cost work
# (ARCHITECTURE.md §7): an RNG draw added, dropped or reordered, or a
# mux tie resolved differently, moves a hash here. Beside it, the window
# mux against its reference merge over populations that fit one window
# and populations that cross window ends (ties on the ends, a rate step
# inside a window, an actor days late), packet by packet and batch by
# batch. Named so a filtered `cargo test` elsewhere can never drop them.
cargo test --release -p ah-simnet --test stream_golden --test mux_equivalence -q

echo "==> decoder totality (release)"
# The three readers hostile bytes can reach — classic pcap (ah-net),
# NetFlow v9 (ah-flow), the WAL frame/record codec and recovery scanner
# (ah-wal): arbitrary bytes, and truncations and single-byte mutations
# of valid input, must end in Ok or one Err — no panic, no loop, no
# buffer sized by an untrusted length. By name, so a filtered `cargo
# test` elsewhere can never drop them.
cargo test --release -p ah-net --test proptests -p ah-flow --test proptests \
  -p ah-wal --test proptests -q

echo "==> trace and memory determinism gates"
# The full determinism + schema matrix (tests/trace.rs) and determinism
# + leak matrix + flush-transient bound (tests/memory.rs), by name like
# telemetry above; then ah-trace's own tests, so its concurrent-writer
# tests run optimised too.
cargo test --release --test trace --test memory -q
cargo test --release -p ah-trace -q

echo "==> durable-run gates (release)"
# Replay and resume at 1 and 8 shards, inline and across executors, the
# storage-fault drills and every refusal of the durable path
# (tests/determinism.rs, tests/chaos.rs) otherwise run only
# inside the debug `cargo test --workspace` above; by name like the
# others, so a filtered invocation elsewhere can never drop them.
cargo test --release --test determinism --test chaos -q

echo "==> binary-level gates (release)"
# tests/cli.rs drives the shipped binaries: usage errors before any
# run (spans past the detector's MAX_DAYS among them), the output pin
# (`output_fingerprint_is_pinned`: `aggressive-scanners --days 1` at 4
# shards and inline prints the fingerprint ROADMAP.md "Output pins"
# names), then the WAL crash-recovery drill (a real mid-append abort,
# resumed and replayed to the uninterrupted fingerprint, and replayed
# again on 4 shards), the metrics
# schema lint on the files written to disk, the traced durable run
# through the first-party trace validator, and the --mem-report leak
# check. Part of tier-1 `cargo test`; named here, in release, so a
# filtered invocation elsewhere can never drop it.
cargo test --release --test cli -q

echo "==> mutation gate"
# The curated sentinel set (ARCHITECTURE.md §14): 22 token-level
# mutants at the load-bearing decision points — WAL
# CRC/truncation/seal handling, the log-to-run match, where a
# journaled run stops, a unit's delta publish, the fate instants' delta,
# the ring occupancy's unit, the mux's window end, detector
# thresholds and source runs, aggregator boundary comparisons and sweep slack — each applied to a
# scratch copy of the tree and run against its explicit kill command.
# Every sentinel must come back *caught*; a survivor (or a detached
# sentinel whose site moved) fails the gate, under a hard wall-clock
# budget.
cargo run -q -p ah-mutate -- --budget 2400 \
  || { echo "error: mutation sentinel gate failed (see survivors above)"; exit 1; }

echo "CI gate passed."
