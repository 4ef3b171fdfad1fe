#!/usr/bin/env bash
# The standing mutant set: every *.diff in this directory is one planted
# mutation of one mechanism the paper's bounds rest on, a unified diff
# against one file whose first line says what it breaks.
#
#   bash mutants/run.sh check        each diff applies (no fuzz) and its
#                                    package still compiles; each recorded
#                                    killer in killers.txt exists and passes
#                                    on the unmutated tree; each killed
#                                    mutant fails one of its killers
#   bash mutants/run.sh [NAME...]    the kill matrix: the tests once on the
#                                    unmutated tree, then once per mutant,
#                                    each over the packages whose tests
#                                    import the mutated one
#
# A mutant is applied to a copy of its file and handed to the go command as
# an -overlay in GOFLAGS, so the tree is never modified and a binary a test
# builds (the fleet's pscnode) carries the mutant too. A mutant is killed
# when one of its run's top-level tests fails or never finishes (a panic, a
# timeout). survivors.txt names each mutant that no test kills — kind
# "equivalent" (no behaviour changes) or "survives" (a known gap) — with
# its reason. The run fails if a diff no longer applies, a mutant does not
# compile, the unmutated tree fails, a mutant survives without an entry, or
# an entry names a mutant that is now killed. Under each mutant's verdict
# line goes one failure line per killing test (see evidence), so a kill
# stays diagnosable after the run's files are gone. Each run rewrites its
# mutants' lines in killers.txt (their one or two fastest killers that
# recordable accepts); check fails on a mutant in neither file. A run over
# the whole set rewrites the matrix between DESIGN.md's mutants markers.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
dir=mutants
timeout=120s
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# target prints the repo path a diff mutates.
target() { sed -n 's|^+++ b/\([^[:space:]]*\).*|\1|p' "$1" | head -n 1; }

# mutate applies diff $1 to a copy of its file and writes the overlay for
# it to $2; it fails, quietly, if the diff does not apply exactly.
mutate() {
	local file copy
	file=$(target "$1")
	[ -n "$file" ] && [ -f "$file" ] || return 1
	copy=$tmp/$(basename "$1" .diff).go
	patch -s -f -F0 --no-backup-if-mismatch -r - -o "$copy" "$file" <"$1" >/dev/null 2>&1 || return 1
	jq -n --arg f "$root/$file" --arg m "$copy" '{Replace: {($f): $m}}' >"$2"
}

# killers reads one go test -json stream and prints "pkg Test" for each
# top-level test that failed or started without finishing, and
# "pkg (package)" for a package that failed with neither.
killers() {
	jq -rs '
		[.[] | select(.Test != null and (.Test | contains("/") | not))] as $t
		| ([$t[] | select(.Action == "fail") | "\(.Package) \(.Test)"]
		   + ([$t[] | select(.Action == "run") | "\(.Package) \(.Test)"]
		      - [$t[] | select(.Action == "pass" or .Action == "fail" or .Action == "skip") | "\(.Package) \(.Test)"])) as $k
		| ([.[] | select(.Test == null and .Action == "fail") | .Package]
		   - [$k[] | split(" ")[0]]) as $p
		| ($k + [$p[] | "\(.) (package)"]) | unique[]' "$1"
}

# recordable says whether test $2 of package $1 may be a recorded killer:
# in internal/fleet and cmd/pscfleet, where most tests start node processes
# or wait on real timers, only the pure ones (chaos scripts, the fan-in
# merge, the plane's policy search, the report builder) may.
recordable() {
	case $1 in
	*/internal/fleet | */cmd/pscfleet)
		[[ $2 =~ ^(TestParseScript|TestDefault|TestGenScript|TestFanIn|TestPlanePolicy|TestBuildReport) ]] ;;
	esac
}

names=()
module=$(go list -m)
if [ "${1:-}" = check ]; then
	start=$SECONDS
	bad=0
	for d in "$dir"/*.diff; do
		name=$(basename "$d" .diff)
		if ! mutate "$d" "$tmp/$name.json"; then
			echo "mutants: $name no longer applies to $(target "$d")"
			bad=1
		elif ! GOFLAGS="${GOFLAGS:-} -overlay=$tmp/$name.json" go build "./$(dirname "$(target "$d")")" 2>"$tmp/$name.err"; then
			echo "mutants: $name does not compile:"
			cat "$tmp/$name.err"
			bad=1
		fi
		grep -qE "^$name " "$dir/killers.txt" "$dir/survivors.txt" \
			|| { echo "mutants: $name is in neither $dir/killers.txt nor $dir/survivors.txt"; bad=1; }
	done
	[ $bad = 0 ] && echo "mutants: all $(ls "$dir"/*.diff | wc -l) diffs apply and compile"
	awk '!/^#/' "$dir/killers.txt" >"$tmp/killers"
	for name in $(awk '{ print $1 }' "$tmp/killers" | sort -u); do
		[ -f "$dir/$name.diff" ] || { echo "mutants: $dir/killers.txt records $name, which has no diff"; bad=1; }
	done
	# Each recorded killer passes on the unmutated tree: one run per package.
	: >"$tmp/base.json"
	for p in $(awk '{ print $2 }' "$tmp/killers" | sort -u); do
		rx=$(awk -v p="$p" '$2 == p { print $3 }' "$tmp/killers" | sort -u | paste -sd '|')
		go test -count=1 -json -timeout "$timeout" -run "^($rx)\$" "./$p" >>"$tmp/base.json" 2>>"$tmp/base.err" || true
	done
	jq -rs '.[] | select(.Test != null and (.Test | contains("/") | not)
		and (.Action == "run" or .Action == "pass" or .Action == "fail" or .Action == "skip"))
		| "\(.Package) \(.Test) \(.Action)"' "$tmp/base.json" | sort -k1,2 -s >"$tmp/base.states"
	while read -r name p test; do
		state=$(awk -v k="$module/$p $test" '$1 " " $2 == k { s = $3 } END { print s }' "$tmp/base.states")
		case $state in
		pass) continue ;;
		'') why="no longer exists" ;;
		fail) why="fails on the unmutated tree" ;;
		skip) why="is skipped on the unmutated tree" ;;
		*) why="never finishes on the unmutated tree" ;;
		esac
		echo "mutants: $name's recorded killer $p $test $why"
		bad=1
	done <"$tmp/killers"
	cat "$tmp/base.err"
	# Each mutant dies under one of its recorded killers: the first to fail
	# (or not finish) ends its run.
	n=0
	for name in $(awk '{ print $1 }' "$tmp/killers" | uniq); do
		[ -f "$tmp/$name.json" ] || continue
		n=$((n + 1))
		killed=
		while read -r p test; do
			GOFLAGS="${GOFLAGS:-} -overlay=$tmp/$name.json" go test -count=1 -json -timeout 60s -run "^$test\$" "./$p" \
				>"$tmp/$name.out" 2>"$tmp/$name.err" || true
			if killers "$tmp/$name.out" | grep -qxF "$module/$p $test"; then
				killed="$p $test"
				break
			fi
		done < <(awk -v n="$name" '$1 == n { print $2, $3 }' "$tmp/killers")
		if [ -z "$killed" ]; then
			echo "mutants: $name survives its recorded killers ($(awk -v n="$name" '$1 == n { printf "%s%s %s", s, $2, $3; s = ", " }' "$tmp/killers"))"
			bad=1
		fi
	done
	[ $bad = 0 ] && echo "mutants: all $n killed mutants die under their recorded killers ($((SECONDS - start)) s)"
	exit $bad
fi
for a in "$@"; do
	[ -f "$dir/$a.diff" ] || { echo "mutants: no $dir/$a.diff"; exit 2; }
	names+=("$a")
done
full=0
if [ ${#names[@]} = 0 ]; then
	full=1
	for d in "$dir"/*.diff; do names+=("$(basename "$d" .diff)"); done
fi

# evidence reads one go test -json stream and prints, for each killer,
# its failure line, cut at 200 bytes: the package's first panic or timeout
# line if it has one, else the last `_test.go:N:` message of the test or of
# a subtest that failed (a test's logs come before the message that ends it),
# else, for an Example, its first printed line that differs from the want.
evidence() {
	killers "$1" | while read -r pkg test; do
		line=$(jq -rs --arg p "$pkg" --arg t "$test" '
			[.[] | select(.Package == $p)] as $e
			| [$e[] | select(.Action == "fail" and .Test != null
			                 and (.Test == $t or (.Test | startswith($t + "/")))) | .Test] as $failed
			| [$e[] | select(.Action == "output") | .Output] as $out
			| ([$out[] | select(test("^panic:|test timed out"))][0])
			  // ([$e[] | select(.Action == "output" and (.Test as $x | any($failed[]; . == $x))
			                     and (.Output | test("_test\\.go:[0-9]+:"))) | .Output] | last)
			  // ([$e[] | select(.Action == "output" and .Test == $t) | .Output] as $o
			     | ($o | index(["got:\n"])) as $g | ($o | index(["want:\n"])) as $w
			     | select($g != null and $w != null)
			     | [range($g + 1; $w) | select($o[.] != $o[. - $g + $w]) | "got \($o[.] | rtrimstr("\n")); want \($o[. - $g + $w] // "nothing" | rtrimstr("\n"))"][0])
			  // "no failure line"' "$1" | sed -n 's/^[[:space:]]*//; /./{p;q;}')
		echo "         $test: ${line:0:200}"
	done
}

echo "mutants: the unmutated tree"
start=$SECONDS
go test -count=1 -json -timeout "$timeout" ./... >"$tmp/base.json" 2>"$tmp/base.err" || true
if [ -n "$(killers "$tmp/base.json")" ] || jq -e 'select(.Action == "build-fail" or .FailedBuild != null)' "$tmp/base.json" >/dev/null; then
	echo "mutants: the unmutated tree fails:"
	evidence "$tmp/base.json"
	cat "$tmp/base.err"
	exit 1
fi
# A test's time is its own or, when its subtests run in parallel after it
# returns, the sum of theirs, whichever is larger.
jq -rs '[.[] | select(.Action == "pass" and .Test != null) | .top = (.Test | split("/")[0])]
	| group_by(.Package + " " + .top)[]
	| "\(.[0].Package) \(.[0].top) \([([.[] | select(.Test == .top) | .Elapsed] | add // 0),
		([.[] | select(.Test | split("/") | length == 2) | .Elapsed] | add // 0)] | max)"' \
	"$tmp/base.json" >"$tmp/times"
echo "mutants: $(wc -l <"$tmp/times") tests pass in $((SECONDS - start)) s"

# Which packages' tests import which: "pkg dep dep ..." per test binary.
go list -test -f '{{if .ForTest}}{{else if eq .Name "main"}}{{.ImportPath}} {{join .Deps " "}}{{end}}' ./... \
	| sed -n 's/^\([^ ]*\)\.test /\1 /p' >"$tmp/deps"

fail=0
: >"$tmp/kills"
: >"$tmp/legend"
i=0
for name in "${names[@]}"; do
	i=$((i + 1))
	d=$dir/$name.diff
	file=$(target "$d")
	printf '%s\t%s\t%s\t%s\n' "$i" "$name" "$file" "$(head -n 1 "$d")" >>"$tmp/legend"
	if ! mutate "$d" "$tmp/$name.json"; then
		echo "mutants: M$i $name no longer applies to $file"
		fail=1
		continue
	fi
	pkg=$module/$(dirname "$file")
	pkgs=$(awk -v p="$pkg" '{ for (i = 1; i <= NF; i++) if ($i == p) { print $1; break } }' "$tmp/deps" | sed "s|^$module|.|")
	start=$SECONDS
	GOFLAGS="${GOFLAGS:-} -overlay=$tmp/$name.json" go test -count=1 -json -timeout "$timeout" $pkgs \
		>"$tmp/$name.out" 2>"$tmp/$name.err" || true
	if jq -e 'select(.Action == "build-fail" or .FailedBuild != null)' "$tmp/$name.out" >/dev/null; then
		echo "mutants: M$i $name does not compile"
		fail=1
		continue
	fi
	killers "$tmp/$name.out" | sed "s/^/$i /" >>"$tmp/kills"
	n=$(awk -v i="$i" '$1 == i' "$tmp/kills" | wc -l)
	listed=$(awk -v n="$name" '$1 == n { print $2 }' "$dir/survivors.txt")
	verdict="killed by $n"
	if [ "$n" = 0 ] && [ -z "$listed" ]; then
		verdict="SURVIVES (not in $dir/survivors.txt)"
		fail=1
	elif [ "$n" = 0 ]; then
		verdict="survives ($listed)"
	elif [ -n "$listed" ]; then
		verdict="killed by $n, but $dir/survivors.txt lists it as $listed"
		fail=1
	fi
	printf 'mutants: M%-3s %-26s %3d pkgs %4d s  %s\n' "$i" "$name" $(echo $pkgs | wc -w) $((SECONDS - start)) "$verdict"
	evidence "$tmp/$name.out"
done

# The matrix: one row per test that kills a mutant (its time on the
# unmutated tree), one column per mutant.
matrix() {
	awk -v n="$i" -v mod="$module/" '
		FNR == NR { t[$1 " " $2] = $3; next }
		{ k = $2 " " $3; kill[k, $1] = 1; rows[k] = 1 }
		END {
			printf "%-58s %6s ", "test (package, top-level test)", "time"
			for (j = 1; j <= n; j++) printf "%3d", j
			printf "\n"
			for (k in rows) {
				split(k, f, " ")
				label = f[1] " " f[2]; sub(mod, "", label)
				line = sprintf("%-58s %5.2fs ", label, t[k])
				for (j = 1; j <= n; j++) line = line sprintf("%3s", kill[k, j] ? "x" : ".")
				print line | "sort"
			}
			close("sort")
			printf "%-58s %6s ", "tests killing it", ""
			for (j = 1; j <= n; j++) { c = 0; for (k in rows) c += kill[k, j]; printf "%3d", c }
			printf "\n"
		}' "$tmp/times" "$tmp/kills"
}
echo
matrix | tee "$tmp/matrix"
killed=$(awk '{ print $1 }' "$tmp/kills" | sort -u | wc -l)
equiv=0
surv=0
for name in "${names[@]}"; do
	case $(awk -v n="$name" '$1 == n { print $2 }' "$dir/survivors.txt") in
	equivalent) equiv=$((equiv + 1)) ;;
	survives) surv=$((surv + 1)) ;;
	esac
done
echo
echo "mutants: ${#names[@]} mutants: $killed killed, $surv survive with a reason, $equiv equivalent"

# The recorded killers: per killed mutant, its one or two fastest killing
# top-level tests (times on the unmutated tree) that recordable accepts.
awk 'FNR == NR { t[$1 " " $2] = $3; next } $3 != "(package)" { print $1, t[$2 " " $3] + 0, $2, $3 }' \
	"$tmp/times" "$tmp/kills" | while read -r j time pkg test; do
	if recordable "$pkg" "$test"; then echo "$j $time $pkg $test"; fi
done | sort -k1,1n -k2,2g -k3,4 \
	| awk -v mod="$module/" 'FNR == NR { name[$1] = $2; next } ++n[$1] <= 2 { sub(mod, "", $3); print name[$1], $3, $4 }' \
		"$tmp/legend" - >"$tmp/recorded"
for j in $(awk '{ print $1 }' "$tmp/kills" | sort -u); do
	name=$(awk -v j="$j" '$1 == j { print $2 }' "$tmp/legend")
	grep -q "^$name " "$tmp/recorded" || {
		echo "mutants: $name is killed only by tests that start processes or wait on real timers; give it a pure killer"
		fail=1
	}
done
if [ $fail = 0 ]; then
	{
		sed -n '/^#/p' "$dir/killers.txt"
		awk 'FNR == NR { named[$2] = 1; next } !/^#/ && !($1 in named)' "$tmp/legend" "$dir/killers.txt" \
			| cat - "$tmp/recorded" | sort -k1,1 -s
	} >"$tmp/killers.txt"
	cp "$tmp/killers.txt" "$dir/killers.txt"
fi

if [ $full = 1 ] && [ $fail = 0 ]; then
	{
		echo '<!-- mutants:begin -->'
		echo
		echo "Generated by \`make mutants\` over the ${#names[@]} diffs in \`mutants/\`: $killed killed,"
		echo "$surv survive with a reason, $equiv equivalent (\`mutants/survivors.txt\`)."
		echo
		echo '| # | mutant | file | what it breaks | killed by |'
		echo '|---|---|---|---|---|'
		while IFS=$'\t' read -r j name file what; do
			# Up to three killers by name, more by count.
			by=$(awk -v j="$j" '$1 == j { n++; s = s (n > 1 ? ", " : "") "`" ($3 == "(package)" ? $2 : $3) "`" }
				END { print (n > 3 ? n " tests" : s) }' "$tmp/kills")
			why=$(awk -v n="$name" '$1 == n { k = $2; $1 = $2 = ""; sub(/^ +/, ""); print k ": " $0 }' "$dir/survivors.txt")
			echo "| $j | \`$name\` | \`$file\` | $what | ${why:-$by} |"
		done <"$tmp/legend"
		echo
		echo 'Each row a test that kills at least one mutant, with its time on the unmutated tree:'
		echo
		echo '```'
		cat "$tmp/matrix"
		echo '```'
		echo
		echo '<!-- mutants:end -->'
	} >"$tmp/section"
	awk -v f="$tmp/section" '
		/^<!-- mutants:begin -->$/ { while ((getline l < f) > 0) print l; skip = 1; next }
		/^<!-- mutants:end -->$/ { skip = 0; next }
		!skip' DESIGN.md >"$tmp/design" && cp "$tmp/design" DESIGN.md
fi
exit $fail
