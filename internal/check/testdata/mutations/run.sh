#!/bin/sh
# Checker validation (`make check-mutations`). Each *.patch here plants one
# deliberate protocol bug. For each, the module is copied to a scratch
# directory and the patch applied there with `git apply`; the copy must
# pass `go build ./... && go vet ./...`, and then every `# check:` command
# in the patch's header must exit non-zero with output matching its
# `# expect:` regex. A patch that does not apply or build, or a check that
# passes, times out or fails without the expected output, fails the run by
# the mutation's name: a compile error is never a detection.
#
#   sh internal/check/testdata/mutations/run.sh              # every patch
#   sh internal/check/testdata/mutations/run.sh a.patch ...  # just these
#
# Header: the `#` lines before the first `diff --git`, which git apply
# ignores.
#
#   # mutation: NAME          the patch's file name without .patch
#   # why: ...                the rule it breaks and where it came from
#   # check: COMMAND          run with sh -c from the module root
#   # expect: REGEX           grep -E pattern for the checks above it
#
# An expect line holds every check since the previous expect to its
# pattern. internal/check's TestMutationPatches keeps the headers well
# formed and every patch applying to the tree.
set -eu

dir=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$dir/../../../.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/mutations.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
# One path for every copy, so packages a patch leaves alone stay in the
# Go build cache from one mutation to the next.
mod="$work/mod"
log="$work/log" # a failed apply or build
out="$work/out" # the last check's output
limit=600 # seconds per check
timer=
if command -v timeout >/dev/null 2>&1; then
	timer="timeout $limit"
fi

if [ $# -eq 0 ]; then
	set -- "$dir"/*.patch
fi

start=$(date +%s)
failed=
count=0

# fail WHY [LOG]: records the current mutation as failed.
fail() {
	echo "FAIL $name: $1"
	if [ -n "${2:-}" ]; then
		tail -n 20 "$2" | sed 's/^/    /'
	fi
	failed="$failed $name"
}

# run_checks EXPECT: every pending check must exit non-zero with output
# matching EXPECT. At the first that does not, it sets why and returns 1.
run_checks() {
	while IFS= read -r cmd; do
		[ -n "$cmd" ] || continue
		if (cd "$mod" && $timer sh -c "$cmd") >"$out" 2>&1 </dev/null; then
			why="passed: $cmd"
			return 1
		else
			rc=$?
		fi
		if [ "$rc" -eq 124 ] && [ -n "$timer" ]; then
			why="timed out after ${limit}s: $cmd"
			return 1
		fi
		if ! grep -Eq -e "$1" "$out"; then
			why="exit $rc without /$1/: $cmd"
			return 1
		fi
		echo "  detected /$1/: $cmd"
	done <<EOF
$pending
EOF
}

for patch in "$@"; do
	case $patch in
	/*) ;;
	*) patch="$PWD/$patch" ;;
	esac
	name=$(basename "$patch" .patch)
	count=$((count + 1))
	echo "mutation $name"
	rm -rf "$mod"
	mkdir "$mod"
	for f in "$root"/* "$root"/.[!.]*; do
		case ${f##*/} in
		.git | .bench_build | benchmark) continue ;;
		esac
		if [ -e "$f" ]; then
			cp -R "$f" "$mod/"
		fi
	done
	# The ceiling keeps git apply from taking an enclosing repository's
	# root as the base of the patch's paths.
	if ! (cd "$mod" && GIT_CEILING_DIRECTORIES="$work" git apply "$patch") >"$log" 2>&1; then
		fail "does not apply" "$log"
		continue
	fi
	if ! (cd "$mod" && go build ./... && go vet ./...) >"$log" 2>&1; then
		fail "does not build" "$log"
		continue
	fi
	pending=
	checks=0
	ok=1
	while IFS= read -r line; do
		case $line in
		'diff --git '*) break ;;
		'# check: '*)
			pending="$pending${line#'# check: '}
"
			checks=$((checks + 1))
			;;
		'# expect: '*)
			if ! run_checks "${line#'# expect: '}"; then
				ok=0
				fail "$why" "$out"
				break
			fi
			pending=
			;;
		esac
	done <"$patch"
	if [ "$ok" -eq 1 ] && [ -n "$pending" ]; then
		fail "check lines with no expect after them"
	elif [ "$ok" -eq 1 ] && [ "$checks" -eq 0 ]; then
		fail "no check lines"
	fi
done

elapsed=$(($(date +%s) - start))
if [ -n "$failed" ]; then
	echo "check-mutations: $count patches, failed:$failed (${elapsed}s)"
	exit 1
fi
echo "check-mutations: $count patches, every one detected (${elapsed}s)"
