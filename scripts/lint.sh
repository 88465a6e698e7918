#!/bin/sh
# Repository lints that rustc and clippy cannot express. CI's `lint` job
# runs this; run it locally from anywhere in the checkout.
set -u
cd "$(dirname "$0")/.." || exit 1
status=0

# `unsafe` lives in one crate: `crates/counting_alloc` holds the one
# `unsafe impl GlobalAlloc` and the one lift of the workspace's
# `unsafe_code = "deny"`. Any other site fails, comments included.
# (`benchmark/` is its own workspace and keeps its own allocator.)
if grep -rnE --include='*.rs' \
    'unsafe[[:space:]]+(impl|fn)\b|unsafe[[:space:]]*\{|(allow|expect)\([^)]*unsafe_code' \
    crates src tests examples | grep -v '^crates/counting_alloc/'; then
    echo "unsafe code outside crates/counting_alloc" >&2
    status=1
fi

# netpipe spawns threads in one module: service threads are
# `worker::Worker`s (stopped and joined by their owner); a spawn anywhere
# else in the crate's non-test code escapes that lifecycle.
for f in $(find crates/netpipe/src -name '*.rs' ! -name worker.rs); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" \
        | grep -E 'thread::(Builder|spawn)'; then
        echo "netpipe spawns a thread outside worker.rs" >&2
        status=1
    fi
done

# Public surface nothing outside its own crate uses. The self-test runs
# the census on synthetic trees in a temporary directory first: each kind
# of violation must fail it.
python3 scripts/public_census.py --self-test || status=1
python3 scripts/public_census.py || status=1

exit "$status"
