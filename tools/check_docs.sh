#!/usr/bin/env sh
# Documentation lint, run as ctest `docs_check` and the CI docs job.
# Two checks, both grep/awk-based (no doc toolchain in the image):
#
#   1. Intra-repo markdown links resolve. Every relative link target in
#      README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md and docs/*.md
#      must exist on disk (anchors are stripped; http(s) links are not
#      checked).
#
#   2. The audited public headers stay documented. For the six headers
#      promised "every public type/function carries a contract"
#      (DESIGN.md / docs/), every public declaration must be preceded by
#      a comment line or carry a trailing ///< doc. Heuristic, awk-based:
#      continuation lines, access specifiers, closing braces, deleted
#      functions, destructors and pure forward declarations are exempt.
#
# Usage: tools/check_docs.sh   (from anywhere; paths resolve from the
# script's own location). Exits nonzero listing every violation.
set -u

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
status=0

# ---- 1. markdown link check ------------------------------------------------

md_files="$repo/README.md $repo/DESIGN.md $repo/EXPERIMENTS.md $repo/ROADMAP.md"
for f in "$repo"/docs/*.md; do
  [ -e "$f" ] && md_files="$md_files $f"
done

for f in $md_files; do
  [ -e "$f" ] || continue
  dir=$(dirname -- "$f")
  # Pull out ](target) link targets, one per line.
  grep -o '](\([^)]*\))' "$f" | sed 's/^](//; s/)$//' | while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*|'') continue ;;
    esac
    path=${target%%#*}              # strip an anchor, keep the file part
    [ -n "$path" ] || continue
    if ! [ -e "$dir/$path" ] && ! [ -e "$repo/$path" ]; then
      echo "check_docs: broken link in ${f#$repo/}: ($target)"
      # subshell: flag through a file, not a variable
      touch "$repo/.check_docs_failed"
    fi
  done
done
if [ -e "$repo/.check_docs_failed" ]; then
  rm -f "$repo/.check_docs_failed"
  status=1
fi

# ---- 2. undocumented public declarations in the audited headers ------------

audited="src/qbd/solver.hpp src/gang/solver.hpp src/gang/class_process.hpp src/gang/anderson.hpp src/workload/sweep.hpp src/util/thread_pool.hpp"

for h in $audited; do
  awk -v file="$h" '
    function trim(s) { sub(/^[ \t]+/, "", s); sub(/[ \t]+$/, "", s); return s }
    function braces(s,   n) { n = gsub(/{/, "{", s) - gsub(/}/, "}", s); return n }
    BEGIN { prev_comment = 1; continuation = 0; private_section = 0; depth = 0 }
    {
      line = trim($0)
      # Depth before this line decides whether it can be a declaration:
      # 0 = file scope, 1 = namespace, 2 = class/struct body. Anything
      # deeper is an inline function body and is never checked. The
      # update runs on every path below via delta.
      delta = braces(line)

      if (line == "") { prev_comment = 0; next }           # blank: breaks doc adjacency
      if (line ~ /^\/\//) { prev_comment = 1; next }       # comment: documents what follows

      # Structural lines that are never declarations.
      if (line ~ /^#/ || line ~ /^namespace / || line ~ /^}/ || line ~ /^{/ ||
          line ~ /^(public|protected):$/ || line ~ /^private:$/) {
        if (line ~ /^(public|protected):$/) private_section = 0
        if (line ~ /^private:$/) private_section = 1
        prev_comment = 0; continuation = 0; depth += delta; next
      }

      # Continuation of a multi-line declaration already checked.
      if (continuation) {
        if (line ~ /[;{}]$/) continuation = 0
        prev_comment = 0; depth += delta; next
      }

      # Inline function bodies (depth > 2) are not declarations.
      if (depth > 2) { prev_comment = 0; depth += delta; next }

      is_decl_start = !private_section
      # Exemptions: deleted/defaulted special members, destructors,
      # pure forward declarations, using directives.
      if (line ~ /= (delete|default);$/) is_decl_start = 0
      if (line ~ /^~/) is_decl_start = 0
      if (line ~ /^(class|struct|enum) [A-Za-z_:]+;$/) is_decl_start = 0
      if (line ~ /^using /) is_decl_start = 0

      if (is_decl_start && !prev_comment && line !~ /\/\//) {
        printf "check_docs: undocumented public declaration in %s:%d: %s\n",
               file, NR, line
        bad = 1
      }

      # A declaration that does not close on this line continues.
      continuation = (line !~ /[;{}]$/)
      prev_comment = 0; depth += delta
    }
    END { exit bad ? 1 : 0 }
  ' "$repo/$h" || status=1
done

if [ "$status" -ne 0 ]; then
  echo "check_docs: FAILED"
else
  echo "check_docs: OK (links resolve; audited headers documented)"
fi
exit "$status"
