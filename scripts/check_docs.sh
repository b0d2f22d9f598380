#!/usr/bin/env sh
# Doc-rot guard, two checks over DESIGN.md, README.md and the comments
# of every Go file:
#  - every internal/…, cmd/…, or examples/… path they cite must exist
#    in the tree. This is what catches a doc or comment pointing at a
#    package that was renamed, deleted or never written (the failure
#    mode the old "internal/core" pointer in internal/trace had);
#  - every *.md file they name must exist, at the repo root or beside
#    the file that names it — so no comment cites a document that was
#    never written.
set -eu
cd "$(dirname "$0")/.."
status=0
# text_of prints what a source may cite from: a whole doc, or a Go
# file's comments.
text_of() {
    case $1 in
    *.go) grep -oE '//.*' "$1" || true ;;
    *) cat "$1" ;;
    esac
}
path_refs() {
    grep -oE '(internal|cmd|examples)/[A-Za-z0-9._/-]+' |
        sed 's/[.,;:]*$//' | sort -u
}
md_refs() {
    grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md([^A-Za-z0-9_]|$)' |
        sed 's/[^A-Za-z0-9_]$//' | sort -u
}
for src in DESIGN.md README.md $(find . -name '*.go' -not -path './.git/*' | sort); do
    for ref in $(text_of "$src" | path_refs); do
        if [ ! -e "$ref" ]; then
            echo "$src references a missing path: $ref" >&2
            status=1
        fi
    done
    for ref in $(text_of "$src" | md_refs); do
        if [ ! -e "$ref" ] && [ ! -e "$(dirname "$src")/$ref" ]; then
            echo "$src names a missing document: $ref" >&2
            status=1
        fi
    done
done
if [ "$status" -eq 0 ]; then
    echo "docs reference only existing paths"
fi
exit $status
