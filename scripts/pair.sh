#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a git ref.
#
#   scripts/pair.sh BASE BENCH [PKG] [ROUNDS]
#   (make pair BASE=<ref> BENCH=<regexp> [PKG=<pkg>] [ROUNDS=N])
#
# Builds PKG's test binary at BASE (from git archive, as make loc BASE=
# does) and in the working tree, then runs the benchmarks matching BENCH
# for ROUNDS rounds (default 10), each round in the palindromic order
#
#   A  B  A' A'  B  A
#
# where A is BASE, B the working tree and A' BASE again: the A/A arm,
# BASE measured against itself. Every side's mean position in the round is
# the same, so a linear drift of the host cancels out of both comparisons,
# and A and A' trade places every other round, so neither owns the ends.
# Each run takes 5 samples of 200ms (-test.count 5): a side's figure for a
# round is the median of its 10 samples there, so a burst of load on a
# shared host moves a sample, not the round.
#
# Per benchmark it prints, for each side, the median ns/op, B/op and
# allocs/op over all its samples and the ns/op interquartile range; then
# the median of the per-round ns/op deltas, the rounds won and a two-sided
# sign-test p-value, for the A/A arm (A' against A) and for the change (B
# against A and A' pooled, BASE's 20 samples of the round). The verdict is
# "unresolved" when B's median delta lies inside the A/A arm's spread (the
# quartiles of its per-round deltas), when B's sign test has p >= 0.05, or
# when the A/A arm's own sign test has p < 0.05 (the host was not steady
# enough for the palindrome to cancel its drift). Otherwise B is "faster"
# or "slower" by its median delta.
set -euo pipefail

usage="usage: pair.sh BASE BENCH [PKG] [ROUNDS]"
base=${1:?$usage}
bench=${2:?$usage}
pkg=${3:-.}
rounds=${4:-10}
go=${GO:-go}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
here="$(pwd)"
mkdir "$tmp/tree"
git archive "$base" | tar -x -C "$tmp/tree"
(cd "$tmp/tree" && "$go" test -c -o "$tmp/base.test" "$pkg")
"$go" test -c -o "$tmp/work.test" "$pkg"

# run SIDE BINARY TREE appends one line per benchmark sample: round side
# name ns/op B/op allocs/op. The binary runs in its own tree's package
# directory, as go test would run it; both sides run at the host's
# GOMAXPROCS, which the name's -N suffix states.
run() {
	(cd "$3/$pkg" && "$2" -test.run '^$' -test.bench "$bench" -test.benchmem \
		-test.benchtime 200ms -test.count 5 -test.timeout 30m) |
		awk -v round="$round" -v side="$1" '/^Benchmark/ {
			ns = bytes = allocs = ""
			for (i = 3; i <= NF; i++) {
				if ($i == "ns/op") ns = $(i - 1)
				if ($i == "B/op") bytes = $(i - 1)
				if ($i == "allocs/op") allocs = $(i - 1)
			}
			print round, side, $1, ns, bytes, allocs
		}' >> "$tmp/runs"
}

for round in $(seq 1 "$rounds"); do
	outer=A inner="A'"
	if [ $((round % 2)) = 0 ]; then outer="A'" inner=A; fi
	run "$outer" "$tmp/base.test" "$tmp/tree"
	run B "$tmp/work.test" "$here"
	run "$inner" "$tmp/base.test" "$tmp/tree"
	run "$inner" "$tmp/base.test" "$tmp/tree"
	run B "$tmp/work.test" "$here"
	run "$outer" "$tmp/base.test" "$tmp/tree"
done

awk -v base="$base" '
function sortv(v, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
}
# q returns the p-quantile of the sorted v[1..n], interpolating.
function q(v, n, p,    x, i) {
	x = 1 + p * (n - 1); i = int(x)
	return i >= n ? v[n] : v[i] + (x - i) * (v[i + 1] - v[i])
}
# signp is the two-sided sign-test p-value of w wins in n untied rounds.
function signp(w, n,    k, i, c, s) {
	if (n == 0) return 1
	k = w < n - w ? w : n - w
	c = 1; s = 0
	for (i = 0; i <= k; i++) { s += c; c = c * (n - i) / (i + 1) }
	s = 2 * s / 2 ^ n
	return s > 1 ? 1 : s
}
# roundmed is the median ns/op of side s in round r of benchmark b.
function roundmed(b, s, r,    n, i, v) {
	n = cnt[b, s, r]
	for (i = 1; i <= n; i++) v[i] = rs[b, s, r, i]
	sortv(v, n)
	return q(v, n, 0.5)
}
{
	n = ++all[$3, $2]; ns[$3, $2, n] = $4; by[$3, $2, n] = $5; al[$3, $2, n] = $6
	n = ++cnt[$3, $2, $1]; rs[$3, $2, $1, n] = $4
	if ($2 != "B") { n = ++cnt[$3, "base", $1]; rs[$3, "base", $1, n] = $4 }
	if (!($3 in seen)) { seen[$3] = 1; names[++nn] = $3 }
	if ($1 > nr) nr = $1
}
END {
	split("A B A'"'"'", sides, " ")
	for (b = 1; b <= nn; b++) {
		name = names[b]
		printf "%s (A = %s, B = working tree, A'"'"' = A again; %d rounds)\n", name, base, nr
		printf "  %-3s %7s %14s %10s %14s %12s\n", "", "samples", "ns/op", "IQR", "B/op", "allocs/op"
		for (s = 1; s <= 3; s++) {
			n = all[name, sides[s]]
			for (i = 1; i <= n; i++) { v1[i] = ns[name, sides[s], i]; v2[i] = by[name, sides[s], i]; v3[i] = al[name, sides[s], i] }
			sortv(v1, n); sortv(v2, n); sortv(v3, n)
			med = q(v1, n, 0.5); iqr = q(v1, n, 0.75) - q(v1, n, 0.25)
			printf "  %-3s %7d %14.0f %9.2f%% %14.0f %12.0f\n", sides[s], n, med, 100 * iqr / med, q(v2, n, 0.5), q(v3, n, 0.5)
		}
		# Per-round ns/op deltas in percent: B (the change) against
		# BASE pooled, A'"'"' (the A/A arm) against A.
		for (s = 2; s <= 3; s++) {
			won = 0; tied = 0
			for (r = 1; r <= nr; r++) {
				a = roundmed(name, (s == 2 ? "base" : "A"), r); x = roundmed(name, sides[s], r)
				dv[r] = 100 * (x - a) / a
				if (x < a) won++
				if (x == a) tied++
			}
			sortv(dv, nr)
			md[s] = q(dv, nr, 0.5); p[s] = signp(won, nr - tied)
			if (s == 3) { lo = q(dv, nr, 0.25); hi = q(dv, nr, 0.75) }
			line[s] = sprintf("median delta %+.2f%%, faster in %d of %d rounds, sign test p = %.3g", md[s], won, nr, p[s])
		}
		printf "  A/A: %s; spread (quartiles) %+.2f%% to %+.2f%%\n", line[3], lo, hi
		printf "  B/BASE: %s\n", line[2]
		if (md[2] >= lo && md[2] <= hi)
			printf "  verdict: unresolved (the median delta lies inside the A/A spread)\n"
		else if (p[2] >= 0.05)
			printf "  verdict: unresolved (sign test p >= 0.05)\n"
		else if (p[3] < 0.05)
			printf "  verdict: unresolved (the A/A arm differs: the host was not steady)\n"
		else
			printf "  verdict: %s by %.2f%%\n", (md[2] > 0 ? "slower" : "faster"), (md[2] > 0 ? md[2] : -md[2])
	}
}' "$tmp/runs"
