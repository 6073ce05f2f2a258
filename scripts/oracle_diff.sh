#!/bin/sh
# Oracle-diff matrix for spectrebench.
#
# Every host-side accelerator (decoded blocks, superblock chaining, the
# memory fast path, core pooling, checkpointed warmup, canonical dedup,
# the prefix planner, dominance pruning, the cell store, the daemon) has
# a reference path that defines what "correct" means. Each leg below
# runs one command with some accelerators off, a different worker count
# or a warm store, and must print exactly the stdout (and exit code) of
# its reference leg. The binary is built once.
#
#   sh scripts/oracle_diff.sh
#
# Needs curl and python3 for the daemon legs, which listen on
# 127.0.0.1:8078. Exits nonzero at the first divergence.
set -eu

go=${GO:-go}
addr=127.0.0.1:8078
work=$(mktemp -d /tmp/oracle_diff.XXXXXX)
daemon_pid=
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT
bin=$work/spectrebench
$go build -o "$bin" ./cmd/spectrebench

# leg FLAGS SUBCMD: one run's stdout plus its exit code. optimize's
# header and trailers report how much work each mode did, so only its
# optima table is compared.
leg() {
    code=0
    # shellcheck disable=SC2086 # FLAGS and SUBCMD are word lists
    "$bin" $1 $2 >"$work/raw.txt" 2>"$work/err.txt" || code=$?
    case $2 in
    *optimize) grep -v -e '^optimize:' -e '^search:' -e '^engine:' "$work/raw.txt" || true ;;
    *) cat "$work/raw.txt" ;;
    esac
    echo "exit $code"
}

# same LABEL: fail unless got.txt matches ref.txt.
same() {
    if ! cmp -s "$work/ref.txt" "$work/got.txt"; then
        echo "oracle_diff: $1: diverged from the reference" >&2
        diff "$work/ref.txt" "$work/got.txt" | head -20 >&2 || true
        exit 1
    fi
    echo "oracle_diff: $1: identical" >&2
}

# matrix SUBCMD FAULTS LEG...: the -jobs 1 reference of SUBCMD and
# every LEG, all under FAULTS, print the same bytes.
matrix() {
    sub=$1 faults=$2
    shift 2
    leg "-jobs 1 $faults" "$sub" >"$work/ref.txt"
    [ "$(wc -l <"$work/ref.txt")" -gt 1 ] || { echo "oracle_diff: $sub: empty reference" >&2; exit 1; }
    for flags in "$@"; do
        leg "$flags $faults" "$sub" >"$work/got.txt"
        same "$sub: $flags $faults"
    done
}

# pure_replay LABEL: the last run's store note reports no misses and no
# writes.
pure_replay() {
    grep -q ' 0 misses, 0 written,' "$work/err.txt" || {
        echo "oracle_diff: $1: not a pure replay" >&2
        grep 'cell store:' "$work/err.txt" >&2 || true
        exit 1
    }
}

# ---- run all: every oracle flag off x jobs x faults ----
for faults in "" "-faults -seed 1"; do
    matrix "run all" "$faults" \
        "-jobs 4" \
        "-jobs 1 -blockcache off" "-jobs 4 -blockcache off" \
        "-jobs 1 -corepool off" "-jobs 4 -corepool off" \
        "-jobs 8" "-jobs 8 -corepool off" \
        "-jobs 1 -memfast off" "-jobs 4 -memfast off" \
        "-jobs 1 -superblock off" "-jobs 4 -superblock off" \
        "-jobs 1 -checkpoint off" "-jobs 4 -checkpoint off" \
        "-jobs 1 -superblock off -checkpoint off" "-jobs 4 -superblock off -checkpoint off"
done
matrix "run all" "-faults -seed 7" \
    "-jobs 4" "-jobs 4 -corepool off" "-jobs 8" "-jobs 8 -corepool off"

# ---- gridbench: dedup x plan x jobs x faults, store cold/warm ----
for faults in "" "-faults -seed 1" "-faults -seed 7"; do
    matrix "-cells 10000 gridbench" "$faults" \
        "-jobs 4" \
        "-jobs 1 -dedup off" "-jobs 4 -dedup off" \
        "-jobs 1 -plan off" "-jobs 4 -plan off" \
        "-jobs 1 -dedup off -plan off" "-jobs 4 -dedup off -plan off"
done
leg "-jobs 1" "-cells 10000 gridbench" >"$work/ref.txt"
leg "-jobs 4 -store $work/gridstore" "-cells 10000 gridbench" >"$work/got.txt"
same "gridbench: store cold"
leg "-jobs 4 -store $work/gridstore" "-cells 10000 gridbench" >"$work/got.txt"
same "gridbench: store warm"
pure_replay "gridbench: store warm"

# ---- optimize: prune x jobs x faults, store cold/warm ----
for faults in "" "-faults -seed 1" "-faults -seed 7"; do
    matrix "optimize" "$faults" "-jobs 4" "-jobs 1 -prune off" "-jobs 4 -prune off"
done
leg "-jobs 1" "optimize" >"$work/ref.txt"
leg "-jobs 4 -store $work/optstore" "optimize" >"$work/got.txt"
same "optimize: store cold"
leg "-jobs 4 -store $work/optstore" "optimize" >"$work/got.txt"
same "optimize: store warm"
grep -q '^engine: 0 cells simulated' "$work/raw.txt" || {
    echo "oracle_diff: optimize: store warm was not a pure replay" >&2
    grep '^engine:' "$work/raw.txt" >&2
    exit 1
}

# ---- daemon: a restarted daemon replays a sweep from its store ----
start_daemon() { # start_daemon STORE
    "$bin" -store "$1" -addr "$addr" serve >/dev/null 2>"$work/daemon.log" &
    daemon_pid=$!
    i=0
    until curl -fsS "http://$addr/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "oracle_diff: daemon did not become healthy" >&2; cat "$work/daemon.log" >&2; exit 1; }
        sleep 0.1
    done
}
stop_daemon() {
    kill -TERM "$daemon_pid" && wait "$daemon_pid"
    daemon_pid=
}
start_daemon "$work/daemonstore"
"$bin" -addr "$addr" client run all >"$work/ref.txt"
stop_daemon
start_daemon "$work/daemonstore"
"$bin" -addr "$addr" client run all >"$work/got.txt"
curl -fsS "http://$addr/statsz" >"$work/statsz.json"
stop_daemon
same "daemon: warm sweep after restart"
python3 - "$work/statsz.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
store, eng = st["store"], st["engine"]
print("oracle_diff: warm daemon: store hits=%d misses=%d puts=%d, engine simulated=%d"
      % (store["hits"], store["misses"], store["puts"], eng["simulated"]), file=sys.stderr)
if store["hits"] == 0 or store["misses"] or store["puts"] or eng["simulated"]:
    sys.exit("oracle_diff: warm daemon sweep was not a pure replay")
EOF

# ---- daemon: /optimize serves the CLI's optima ----
start_daemon "$work/optstore"
curl -fsS -X POST -d '{}' "http://$addr/optimize" >"$work/optimize.ndjson"
curl -fsS "http://$addr/statsz" >"$work/statsz.json"
stop_daemon
"$bin" -jobs 4 optimize >"$work/cli.txt" 2>/dev/null
python3 - "$work/optimize.ndjson" "$work/cli.txt" "$work/statsz.json" <<'EOF'
import json, re, sys
http = {}
summary = False
for line in open(sys.argv[1]):
    rec = json.loads(line)
    if rec["type"] == "uarch":
        u, best = rec["uarch"], rec["uarch"].get("best")
        http[u["uarch"]] = (best["display"], "%.2f" % best["cost"]) if best else None
    summary |= rec["type"] == "summary"
cli = {}
rows = open(sys.argv[2]).read().splitlines()
for row in rows[rows.index(next(r for r in rows if r.startswith("uarch "))) + 1:]:
    if row.startswith("search:"):
        break
    cols = re.split(r"\s{2,}", row.strip())
    cli[cols[0]] = None if cols[1].startswith("(") else (cols[1], cols[2])
if not summary or len(http) != 8:
    sys.exit("oracle_diff: /optimize streamed %d uarch records (want 8) and summary=%s" % (len(http), summary))
if json.load(open(sys.argv[3])).get("optimize", {}).get("searches") != 1:
    sys.exit("oracle_diff: /statsz does not count the search")
for uarch in sorted(set(http) | set(cli)):
    if http.get(uarch, "missing") != cli.get(uarch, "missing"):
        sys.exit("oracle_diff: %s: /optimize best %s, CLI best %s" % (uarch, http.get(uarch), cli.get(uarch)))
    print("oracle_diff: /optimize %s: %s agrees with the CLI" % (uarch, http[uarch]), file=sys.stderr)
EOF
echo "oracle_diff: every leg matched its reference" >&2
