#!/usr/bin/env python3
"""Documentation consistency checker (run by the CI docs job and ctest).

Four checks, so the docs/ subsystem cannot rot silently:

1. Every intra-repository markdown link in tracked *.md files resolves:
   the target file exists, and a #fragment (same-file or cross-file)
   matches a heading slug in the target.
2. Every public class/struct declared at namespace scope in the scanned
   public headers (src/engine/*.h, plus the representation-plane headers
   src/common/bool_matrix.h, src/common/sparse_matrix.h, the tree-plane
   headers src/tree/axis_cache.h and src/tree/tree_io.h, and the
   plan-optimizer headers src/ppl/canonical.h and
   src/ppl/relation_cache.h) is mentioned in docs/ARCHITECTURE.md, so
   new public API cannot ship undocumented.
3. Every flagged benchmark family -- the FLAGGED_SECTIONS list of
   tools/bench_compare.py, read from that file rather than copied -- has
   a row in the families table of bench/README.md.
4. Every backticked repository path (`src/x.cc`, `fo/acq.h`, with or
   without a `:line` or `::Test` suffix) in docs/*.md, README.md and
   bench/README.md names an existing file, from the repository root or
   from src/, so deleting a file cannot leave the prose pointing at it.

Exit code 0 iff all checks pass; failures are listed one per line.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def tracked_markdown_files():
    try:
        out = subprocess.run(
            ["git", "ls-files", "*.md", "**/*.md"],
            cwd=REPO, capture_output=True, text=True, check=True).stdout
        files = sorted({REPO / line for line in out.splitlines() if line})
        if files:
            return files
    except (subprocess.CalledProcessError, FileNotFoundError):
        pass
    # Fallback outside a git checkout: walk, skipping build trees.
    skip = {".git"}
    return sorted(
        p for p in REPO.rglob("*.md")
        if not any(part in skip or part.startswith("build")
                   for part in p.relative_to(REPO).parts))


def heading_slug(heading):
    """GitHub-style anchor slug for a markdown heading."""
    slug = re.sub(r"[^\w\- ]", "", heading.strip().lower())
    return slug.replace(" ", "-")


def heading_slugs(md_path):
    slugs = set()
    seen = {}
    in_code = False
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if not in_code and (match := re.match(r"#{1,6}\s+(.*)", line)):
            slug = heading_slug(match.group(1))
            # GitHub de-duplicates repeated headings as slug, slug-1, ...
            count = seen.get(slug, 0)
            seen[slug] = count + 1
            slugs.add(slug if count == 0 else f"{slug}-{count}")
    return slugs


LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")


def markdown_links(md_path):
    """Intra-repo link targets, with code blocks stripped."""
    links = []
    in_code = False
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        for target in LINK_RE.findall(line):
            if re.match(r"[a-z]+:", target):  # http:, https:, mailto:
                continue
            links.append(target)
    return links


def check_links(md_files):
    errors = []
    for md in md_files:
        for target in markdown_links(md):
            path_part, _, fragment = target.partition("#")
            if path_part.startswith("/"):  # GitHub: repo-root-relative
                resolved = (REPO / path_part.lstrip("/")).resolve()
            elif path_part:
                resolved = (md.parent / path_part).resolve()
            else:
                resolved = md
            if not resolved.exists():
                errors.append(f"{md.relative_to(REPO)}: broken link target "
                              f"'{target}' ({path_part} does not exist)")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in heading_slugs(resolved):
                    errors.append(
                        f"{md.relative_to(REPO)}: link '{target}' names "
                        f"anchor '#{fragment}' not found in "
                        f"{resolved.relative_to(REPO)}")
    return errors


DECL_RE = re.compile(
    r"^(?:class|struct|enum class)\s+([A-Za-z_]\w*)(?:\s+final)?"
    r"\s*(?:\{|$|:[^:])")


def scanned_headers():
    headers = sorted((REPO / "src" / "engine").glob("*.h"))
    headers.append(REPO / "src" / "common" / "bool_matrix.h")
    headers.append(REPO / "src" / "common" / "sparse_matrix.h")
    headers.append(REPO / "src" / "tree" / "axis_cache.h")
    headers.append(REPO / "src" / "tree" / "tree_io.h")
    headers.append(REPO / "src" / "ppl" / "canonical.h")
    headers.append(REPO / "src" / "ppl" / "relation_cache.h")
    # Concurrency primitives: every public type here must appear in the
    # ARCHITECTURE.md "Concurrency contracts" section.
    headers.append(REPO / "src" / "common" / "mutex.h")
    headers.append(REPO / "src" / "common" / "thread_annotations.h")
    # Fuzzing subsystem: the harness contract header is documentation
    # too -- its types must be described alongside the rest.
    headers.append(REPO / "fuzz" / "fuzz_driver.h")
    return [h for h in headers if h.exists()]


def engine_public_types():
    names = {}
    for header in scanned_headers():
        for line in header.read_text(encoding="utf-8").splitlines():
            if match := DECL_RE.match(line):
                names.setdefault(match.group(1),
                                 header.relative_to(REPO).as_posix())
    return names


def check_architecture_coverage():
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not arch.exists():
        return ["docs/ARCHITECTURE.md does not exist"]
    text = arch.read_text(encoding="utf-8")
    types = engine_public_types()
    return [
        f"docs/ARCHITECTURE.md: public type '{name}' ({origin}) is "
        "never mentioned"
        for name, origin in sorted(types.items())
        if not re.search(rf"\b{re.escape(name)}\b", text)
    ]


def flagged_sections():
    """FLAGGED_SECTIONS from tools/bench_compare.py, parsed, not executed."""
    source = (REPO / "tools" / "bench_compare.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "FLAGGED_SECTIONS"):
            return ast.literal_eval(node.value)
    raise ValueError("tools/bench_compare.py defines no FLAGGED_SECTIONS")


def check_bench_readme_rows():
    readme = REPO / "bench" / "README.md"
    if not readme.exists():
        return ["bench/README.md does not exist"]
    # The family cell is a table row's first cell; a family is named there
    # in backticks, bare or followed by its /<args>.
    first_cells = [line.split("|")[1]
                   for line in readme.read_text(encoding="utf-8").splitlines()
                   if line.startswith("|") and line.count("|") >= 2]
    return [
        f"bench/README.md: flagged family '{family}' "
        "(tools/bench_compare.py FLAGGED_SECTIONS) has no table row"
        for family in flagged_sections()
        if not any(re.search(rf"`{re.escape(family)}[/`]", cell)
                   for cell in first_cells)
    ]


CODE_SPAN_RE = re.compile(r"`([^`\s]+)`")
# A path has a directory part and a file extension; `:12`, `:12-14` or
# `::TestName` may follow it.
REPO_PATH_RE = re.compile(
    r"([\w.\-]+(?:/[\w.\-]+)+\.[A-Za-z]+)(?::\d+(?:[-–]\d+)?|::\w+)?")


def check_backticked_paths():
    md_files = sorted((REPO / "docs").glob("*.md"))
    md_files += [REPO / "README.md", REPO / "bench" / "README.md"]
    errors = []
    for md in md_files:
        if not md.exists():
            continue
        in_code = False
        for number, line in enumerate(
                md.read_text(encoding="utf-8").splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_code = not in_code
                continue
            if in_code:
                continue
            for span in CODE_SPAN_RE.findall(line):
                match = REPO_PATH_RE.fullmatch(span)
                if match is None:
                    continue
                path = match.group(1)
                if not ((REPO / path).is_file() or
                        (REPO / "src" / path).is_file()):
                    errors.append(f"{md.relative_to(REPO)}:{number}: "
                                  f"`{span}` names no file in the "
                                  "repository")
    return errors


def main():
    md_files = tracked_markdown_files()
    errors = (check_links(md_files) + check_architecture_coverage() +
              check_bench_readme_rows() + check_backticked_paths())
    for error in errors:
        print(f"FAIL: {error}")
    print(f"check_docs: {len(md_files)} markdown files, "
          f"{len(engine_public_types())} engine types, "
          f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
