#!/usr/bin/env sh
# The numbers a simplicity change reports, from the repo root: scripts/census.sh
# A file's test tail starts at its first column-0 `#[cfg(test)]`; an indented
# one marks a single item inside non-test code.
set -eu
cd "$(dirname "$0")/.."
# shellcheck disable=SC2046 # one word per source file is the point
set -- $(find crates/*/src -name '*.rs' | sort)

# A file that is itself a `#[cfg(test)] mod x;` of its parent is test code
# from its first line: leave it out of every count below.
for f in "$@"; do
    mod=$(basename "$f" .rs)
    if grep -H -A1 '^#\[cfg(test)\]' "$(dirname "$f")"/*.rs | grep -q "^[^ ]*-mod $mod;"; then
        echo "test-only module, not counted: $f ($(wc -l < "$f") lines)"
    else
        set -- "$@" "$f"
    fi
    shift
done

echo "== non-test lines per file (those before the first #[cfg(test)]), then per crate =="
awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
    !t { n[FILENAME]++; split(FILENAME, p, "/"); crate[p[2]]++; all++ }
    END { for (f in n) print n[f], f; for (c in crate) print crate[c], "~crate", c; print all, "~total" }' "$@" |
    sort -k2
echo "== expect(clippy::{unwrap_used,expect_used,panic}) per crate (suppressed panic paths, same non-test lines) =="
awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
    !t && /#\[expect\(clippy::(unwrap_used|expect_used|panic)[,)]/ { split(FILENAME, p, "/"); n[p[2]]++; all++ }
    END { for (c in n) print n[c], c; print all + 0, "~total" }' "$@" | sort -k2
echo "== punch-lint: allow(D001) per crate (suppressed host-clock reads, whole files: D001 covers tests too) =="
grep -c '// punch-lint: allow([^)]*D001' "$@" | awk -F'[/:]' '{ n[$2] += $NF; all += $NF }
    END { for (c in n) if (n[c]) print n[c], c; print all + 0, "~total" }' | sort -k2
echo "== settable values: pub fields per *Config struct and per knob struct, then ~total =="
awk '/^pub struct ([A-Za-z]*Config|NatBehavior|LinkSpec|CandidatePlan|SourceSpec) \{/ { s = $3 }
    s && /^    pub [a-z_]+:/ { n[s]++; all++ } /^}/ { s = "" }
    END { for (s in n) print n[s], s; print all + 0, "~total" }' "$@" | sort -k2
echo "== pub fn with_* per crate =="
grep -c 'pub fn with_' "$@" | awk -F'[/:]' '{ n[$2] += $NF; all += $NF }
    END { for (c in n) if (n[c]) print n[c], c; print all, "~total" }' | sort -k2
echo "== pub fn per crate (plain pub, same non-test lines) =="
awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
    !t && /^ *pub (const |async |unsafe )*fn / { split(FILENAME, p, "/"); n[p[2]]++; all++ }
    END { for (c in n) print n[c], c; print all + 0, "~total" }' "$@" | sort -k2
