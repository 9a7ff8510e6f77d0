#!/usr/bin/env bash
# Docs drift gate: the normative values cited in docs/PROTOCOL.md must
# match crates/service/src/wire.rs — the wire version, the frame cap,
# and the WireError taxonomy — and the metric reference in
# docs/OPERATIONS.md must match the service's one counter table.
# Grep-level on purpose: the docs must cite the *literal* values an
# operator would see on the wire and on the scrape page.
set -euo pipefail

WIRE=crates/service/src/wire.rs
DOC=docs/PROTOCOL.md
fail=0

version=$(sed -n 's/^pub const WIRE_VERSION: u32 = \([0-9][0-9]*\);.*/\1/p' "$WIRE")
[ -n "$version" ] || { echo "cannot extract WIRE_VERSION from $WIRE"; exit 1; }

shift_bits=$(sed -n 's/^pub const MAX_FRAME_BYTES: usize = 1 << \([0-9][0-9]*\);.*/\1/p' "$WIRE")
[ -n "$shift_bits" ] || { echo "cannot extract MAX_FRAME_BYTES from $WIRE"; exit 1; }
max_bytes=$((1 << shift_bits))

grep -qF "| \`WIRE_VERSION\` | \`$version\` |" "$DOC" || {
  echo "$DOC: constants table does not cite WIRE_VERSION = $version"
  fail=1
}
grep -qF "| \`MAX_FRAME_BYTES\` | \`$max_bytes\` (\`1 << $shift_bits\`) |" "$DOC" || {
  echo "$DOC: constants table does not cite MAX_FRAME_BYTES = $max_bytes (1 << $shift_bits)"
  fail=1
}

# Every example header in the doc must carry the current version.
while read -r cited; do
  if [ "$cited" != "$version" ]; then
    echo "$DOC: example header uses \"v\":$cited but WIRE_VERSION is $version"
    fail=1
  fi
done < <(grep -o '{"v":[0-9]*' "$DOC" | grep -o '[0-9]*$')

# Every WireError variant must be documented, and the doc must not
# document variants that no longer exist.
variants=$(awk '/^pub enum WireError \{/,/^\}/' "$WIRE" \
  | grep -oE '^    [A-Z][A-Za-z]+' | tr -d ' ')
[ -n "$variants" ] || { echo "cannot extract WireError variants from $WIRE"; exit 1; }
for v in $variants; do
  grep -q "\`$v" "$DOC" || { echo "$DOC: WireError::$v is undocumented"; fail=1; }
done
while read -r cited; do
  echo "$variants" | grep -qx "$cited" || {
    echo "$DOC: documents WireError::$cited, which $WIRE no longer defines"
    fail=1
  }
done < <(grep -o 'WireError::[A-Za-z]*' "$DOC" | sed 's/WireError:://' | sort -u)

# The proptest properties the doc cites must exist.
PROPS=crates/service/tests/proptest_wire.rs
while read -r prop; do
  grep -q "fn $prop" "$PROPS" || {
    echo "$DOC: cites property $prop, which $PROPS does not define"
    fail=1
  }
done < <(grep -oE '`[a-z_]+_(round_trip|rejected|panic[a-z_]*|rejected_[a-z_]+)[a-z_]*`' "$DOC" \
  | tr -d '\`' | sort -u)

# The service counters are declared once, in the service_counters!
# table; docs/OPERATIONS.md §5.2 must list every name in it, and must not
# list a service/speculation counter the table does not declare.
SERVICE=crates/service/src/service.rs
OPS=docs/OPERATIONS.md
table=$(awk '/^service_counters! \{/,/^\}/' "$SERVICE" \
  | grep -oE '= "iolb_[a-z_]+"' | grep -oE 'iolb_[a-z_]+' | sort -u)
[ -n "$table" ] || { echo "cannot extract the service_counters! table from $SERVICE"; exit 1; }
reference=$(awk '/^### 5\.2 /,/^### 5\.3 /' "$OPS")
for name in $table; do
  echo "$reference" | grep -q "\`$name[\`{]" || {
    echo "$OPS §5.2: service counter $name is undocumented"
    fail=1
  }
done
while read -r cited; do
  echo "$table" | grep -qx "$cited" || {
    echo "$OPS §5.2: documents $cited, which the service_counters! table does not declare"
    fail=1
  }
done < <(echo "$reference" | grep -oE 'iolb_(service|speculation)_[a-z_]+' | sort -u)

if [ "$fail" -ne 0 ]; then
  echo "docs/PROTOCOL.md or docs/OPERATIONS.md has drifted from the implementation"
  exit 1
fi
echo "protocol docs in sync (v$version, frame cap $max_bytes, $(echo "$table" | wc -l) service counters)"
