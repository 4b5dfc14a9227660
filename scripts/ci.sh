#!/usr/bin/env sh
# Full local CI, from the repo root: scripts/ci.sh
# The steps are the `echo "== ... =="` lines below, in order; any command
# that fails stops the script.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

lint() {
    cargo run --release --quiet -p punch-lint -- "$@"
}

# lint_must_flag RULE ROOT: punch-lint must exit nonzero on ROOT and name RULE.
lint_must_flag() {
    if lint --root "$2" > "$tmp/seeded.txt" 2>&1; then
        echo "FAIL: punch-lint exited 0 on $2" >&2
        exit 1
    fi
    grep -q "$1" "$tmp/seeded.txt"
}

# same_at_1_and_2_workers EXPERIMENT [FLAGS]: runs it at 1 and at 2 workers
# into fresh directories (its gate sets the exit status both times) and
# requires the two artifact sets to be identical.
same_at_1_and_2_workers() {
    rm -rf "$tmp/w1" "$tmp/w2"
    PUNCH_JOBS=1 cargo run --release --quiet -p punch-bench -- "$@" --out "$tmp/w1" > /dev/null
    PUNCH_JOBS=2 cargo run --release --quiet -p punch-bench -- "$@" --out "$tmp/w2" > /dev/null
    diff -r "$tmp/w1" "$tmp/w2"
}

# peak_rss_under WORKLOAD MIB: one full-size benchmark rep must report
# peak_rss_mib <= MIB. Needs no timing: peak RSS repeats to +-0.1 MiB.
peak_rss_under() {
    bash benchmark/run.sh --workload "$1" --seed 2005 --seconds 1 --trace 0 > "$tmp/mem.txt"
    rss=$(tail -n 1 "$tmp/mem.txt" | sed -n 's/.*"peak_rss_mib":{"value":\([0-9.]*\).*/\1/p')
    echo "$1 peak_rss_mib ${rss:-missing}"
    if ! awk -v rss="$rss" -v max="$2" 'BEGIN { exit !(rss > 0 && rss <= max) }'; then
        echo "FAIL: $1 peak_rss_mib missing or over $2" >&2
        exit 1
    fi
}

# example_says EXAMPLE LINE [ARGS]: the example runs and prints LINE (a
# fixed string) in its stdout.
example_says() {
    example=$1
    line=$2
    shift 2
    cargo run --release --quiet --example "$example" -- "$@" > "$tmp/example.txt"
    if ! grep -qF -- "$line" "$tmp/example.txt"; then
        cat "$tmp/example.txt"
        echo "FAIL: example $example did not print: $line" >&2
        exit 1
    fi
}

echo "== build (release) =="
cargo build --release --quiet

echo "== test (tier-1: root package) =="
cargo test -q

echo "== test (every other crate's suites, incl. decoder fuzzing and the punch-lint clean-tree gate) =="
cargo test --workspace --exclude p2p-punch -q

echo "== clippy (-D warnings; vendor/* stand-ins excluded) =="
cargo clippy --workspace --exclude rand --exclude bytes --exclude proptest \
    --all-targets -- -D warnings

echo "== rustdoc (-D warnings; vendor/* stand-ins excluded) =="
RUSTDOCFLAGS="-D warnings" cargo doc --quiet --no-deps --workspace \
    --exclude rand --exclude bytes --exclude proptest

echo "== census: line, knob and pub fn counts; settable values, with_* builders and expected panics may not grow =="
sh scripts/census.sh | tee "$tmp/census.txt"
# The ratchet: raise this number only by editing this line, with the
# reason for the new knob in the same change.
max_settable=65
settable=$(sed -n '/^== settable values/,/^==/s/^\([0-9]*\) ~total$/\1/p' "$tmp/census.txt")
if [ "${settable:-0}" -gt "$max_settable" ] || [ -z "$settable" ]; then
    echo "FAIL: ${settable:-no} settable values; the limit is $max_settable" >&2
    exit 1
fi
# The same ratchet on `pub fn with_*` builders: a field is set by
# assignment, so raise this only by editing this line, with the reason.
max_with=22
with=$(sed -n '/^== pub fn with_\*/,/^==/s/^\([0-9]*\) ~total$/\1/p' "$tmp/census.txt")
if [ "${with:-0}" -gt "$max_with" ] || [ -z "$with" ]; then
    echo "FAIL: ${with:-no} pub fn with_* builders; the limit is $max_with" >&2
    exit 1
fi
# The panic budget only falls: lower this line when a suppressed panic
# path (an `#[expect(clippy::{unwrap_used,expect_used,panic}` in library
# code) goes, never raise it.
max_p001=28
p001=$(sed -n '/^== expect(clippy::{unwrap_used,expect_used,panic})/,/^==/s/^\([0-9]*\) ~total$/\1/p' "$tmp/census.txt")
if [ "${p001:-0}" -gt "$max_p001" ] || [ -z "$p001" ]; then
    echo "FAIL: ${p001:-no} expected panic paths; the limit is $max_p001" >&2
    exit 1
fi

echo "== punch-lint (LINTS.md): clean tree, report identical across runs =="
lint | tee "$tmp/lint.txt"
lint | cmp - "$tmp/lint.txt"

echo "== punch-lint: a seeded violation per rule family (D001, S001-S005) fails the gate =="
lint_must_flag D001 crates/lint/tests/fixtures/d001_wallclock
for rule in 1 2 3 4 5; do
    lint_must_flag "S00$rule" "crates/lint/tests/fixtures/s00${rule}_bad"
done

echo "== experiments: gates pass, artifacts identical at 1 and 2 workers =="
for experiment in table1 scenarios latency prediction keepalive ablations; do
    same_at_1_and_2_workers "$experiment"
done
same_at_1_and_2_workers chaos --trials 2
same_at_1_and_2_workers chaos_search --schedules 20
same_at_1_and_2_workers chaos_search --schedules 20 --profile adversarial
# racing is the one chaos profile whose clients predict ports (§5.1).
same_at_1_and_2_workers chaos_search --schedules 20 --profile racing
same_at_1_and_2_workers strategies --trials 4
same_at_1_and_2_workers attacks --trials 2
same_at_1_and_2_workers million --sessions 400 --shards 4
same_at_1_and_2_workers fleet --sessions 200 --shards 4 --fleets 4

echo "== pinned artifacts: default runs reproduce results/ byte for byte =="
for experiment in table1 scenarios latency prediction keepalive ablations \
    chaos chaos_search strategies attacks; do
    cargo run --release --quiet -p punch-bench -- "$experiment" --out "$tmp/pins" > /dev/null
done
lint --emit-registries "$tmp/pins" > /dev/null
# Full-scale `million` and `fleet` are left out by name: minutes of run
# time and hundreds of MiB each. Their capped runs above exercise the
# same code at both worker counts; re-pin them by hand with
# `punch-bench million` / `punch-bench fleet` when a change moves them.
cp results/BENCH_million.json results/BENCH_fleet.json "$tmp/pins/"
diff -r "$tmp/pins" results

echo "== examples: each prints its documented outcome =="
# file_transfer is the one end-to-end run of a punched TCP stream's data
# path (TCB send queue, frame codec, checksum) outside benchmark/.
example_says quickstart "hole punched in 190.9 ms (simulated)"
example_says file_transfer "transferred 256 KiB in 1.70 s (simulated) = 150.6 KiB/s"
example_says voice_call "session died and re-punched on demand: 1 re-punch, frame delivered = true"
example_says classify_nat "symmetric NAT, port delta +1 — predictable, prediction viable"
example_says nat_survey "All         55/65  ( 85%)   13/55  ( 24%)   32/49  ( 65%)   12/49  ( 24%)" --quick

echo "== benchmark/ still builds and its replicas still match =="
# smoke.sh reports a replica whose digest differs from the untraced run
# (`trace.replica_matches` below 1) without failing on it; here it is fatal.
bash benchmark/smoke.sh > "$tmp/smoke.txt" || { cat "$tmp/smoke.txt"; exit 1; }
cat "$tmp/smoke.txt"
grep -q '^ *trace\.replica_matches' "$tmp/smoke.txt"
if grep '^ *trace\.replica_matches' "$tmp/smoke.txt" | grep -v ' 1\.000000 count '; then
    echo "FAIL: a benchmark replica no longer matches the program it mirrors" >&2
    exit 1
fi

echo "== memory gates: full-size fleet_churn peaks under 16 MiB, server_storm under 40, stream_tcp under 3.3, crowd_udp under 100 =="
# fleet_churn (13.9 MiB) ran to 143 MiB while drained event-queue buckets
# kept their buffers; retention coming back, or a generator made for
# each of its NATs and routers, is a red build.
peak_rss_under fleet_churn 16
# server_storm (37.5 MiB) injects 150 000 datagrams at one instant: one
# queue entry per burst (its packets chained through the arena), so its
# queue never holds more than 64 entries and never builds a wheel, slab
# or working set. A queue entry per datagram again adds about 5 MiB, and
# a `Packet` wider than its 80 B (a `Bytes` holding more inline than the
# longest control message) about 8; no test sees either.
peak_rss_under server_storm 40
# stream_tcp (2.9 MiB) sends 8 KiB payloads over one punched stream; each
# is queued as its frame's second part and segments are sliced from it.
# A frame copied on send brings back about 0.9 MiB, and no test sees it.
peak_rss_under stream_tcp 3.3
# crowd_udp (92.6 MiB, 80 008 nodes) is where the queue's retention
# would show: its slab keeps the most entries the wheel ever held and its
# working set the capacity of its largest day. Each of its 40 000 clients
# is one `HostDevice<UdpPeer>` allocation with its session inline and no
# idle outbox buffers, each of its NATs holds its mapping, filter holes
# and learned host in place, and the engine keeps 40 B per node and per
# link with an RNG only for a node that draws, and every client, client
# stack and NAT shares its world's one profile; a per-session side
# record, a boxed part per host or per mapping, a tiny table on the heap,
# a race set with spare slots, start-up events held through the punch,
# an eager generator per node, a profile copied into each node, or a
# generator, a TCP table or an outbox set held by every host comes back
# here.
peak_rss_under crowd_udp 100

echo "OK"
