#!/usr/bin/env sh
# Doc-rot guard, two checks:
#  - every internal/…, cmd/…, or examples/… path that DESIGN.md or
#    README.md mentions must exist in the tree. This is what catches a
#    doc pointing at a package that was renamed or never written (the
#    failure mode the old "internal/core" pointer in internal/trace
#    had);
#  - every *.md file that DESIGN.md, README.md, or a Go comment names
#    must exist, at the repo root or beside the file that names it —
#    so no comment cites a document that was never written.
set -eu
cd "$(dirname "$0")/.."
status=0
for doc in DESIGN.md README.md; do
    refs=$(grep -oE '(internal|cmd|examples)/[A-Za-z0-9._/-]+' "$doc" |
        sed 's/[.,;:]*$//' | sort -u)
    for ref in $refs; do
        if [ ! -e "$ref" ]; then
            echo "$doc references a missing path: $ref" >&2
            status=1
        fi
    done
done
md_refs() {
    grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md([^A-Za-z0-9_]|$)' |
        sed 's/[^A-Za-z0-9_]$//' | sort -u
}
for src in DESIGN.md README.md $(find . -name '*.go' -not -path './.git/*' | sort); do
    case $src in
    *.go) refs=$(grep -oE '//.*' "$src" | md_refs) ;;
    *) refs=$(md_refs <"$src") ;;
    esac
    for ref in $refs; do
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
