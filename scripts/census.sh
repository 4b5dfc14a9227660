#!/usr/bin/env sh
# The numbers a simplicity change reports, from the repo root: scripts/census.sh
# Exits 1 when a `pub fn with_*` builder has no caller outside its own file.
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
awk 'FNR == 1 { t = 0 } /^ *#\[cfg\(test\)\]/ { t = 1 }
    !t { n[FILENAME]++; split(FILENAME, p, "/"); crate[p[2]]++; all++ }
    END { for (f in n) print n[f], f; for (c in crate) print crate[c], "~crate", c; print all, "~total" }' "$@" |
    sort -k2
echo "== punch-lint: allow(P001) per crate (suppressed panic paths, same non-test lines) =="
awk 'FNR == 1 { t = 0 } /^ *#\[cfg\(test\)\]/ { t = 1 }
    !t && /punch-lint: allow\([^)]*P001/ { split(FILENAME, p, "/"); n[p[2]]++; all++ }
    END { for (c in n) print n[c], c; print all + 0, "~total" }' "$@" | sort -k2
echo "== punch-lint: allow(D001) per crate (suppressed host-clock reads, whole files: D001 covers tests too) =="
grep -c '// punch-lint: allow([^)]*D001' "$@" | awk -F'[/:]' '{ n[$2] += $NF; all += $NF }
    END { for (c in n) if (n[c]) print n[c], c; print all + 0, "~total" }' | sort -k2
echo "== pub fields per *Config struct =="
awk '/^pub struct [A-Za-z]*Config \{/ { s = $3 } s && /^    pub [a-z_]+:/ { n[s]++ } /^}/ { s = "" }
    END { for (s in n) print n[s], s }' "$@" | sort -k2
echo "== pub fn with_* per crate =="
grep -c 'pub fn with_' "$@" | awk -F'[/:]' '{ n[$2] += $NF; all += $NF }
    END { for (c in n) if (n[c]) print n[c], c; print all, "~total" }' | sort -k2
echo "== calls of each builder outside its defining file (by name: .with_x( or ::with_x() =="
callers=$(grep -n 'pub fn with_' "$@" | sed -E 's/^([^:]+):.*pub fn (with_[a-z_0-9]+).*/\1 \2/' |
    while read -r file name; do
        calls=$(grep -rn --include='*.rs' "[.:]$name[(:]" crates tests examples src benchmark/src |
            grep -vc "^$file:" || true)
        echo "$calls $name $file"
    done | sort -n)
echo "$callers"
if echo "$callers" | grep -q '^0 '; then
    echo "FAIL: the builders counted 0 have no caller; delete them (fields are set by assignment)" >&2
    exit 1
fi
