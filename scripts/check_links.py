#!/usr/bin/env python3
"""Markdown link checker for the repo's docs.

Scans every tracked *.md file for inline links/images and verifies that
relative targets exist (anchors stripped). External http(s)/mailto links
are skipped — this guards the intra-repo docs tree, not the internet.

Also scans the code trees (src/ tools/ bench/ tests/ examples/ scripts/)
for mentions of *.md files — in comments and in printed text — and fails
on any that resolve neither against the repo root nor against the
mentioning file's directory, so code cannot cite a document that does
not exist.

Usage: python3 scripts/check_links.py  (from anywhere; paths resolve
against the repo root, one directory above this script)
"""
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Inline markdown links and images: [text](target) / ![alt](target).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = {".git", "build", "node_modules"}
# Generated retrieval artifacts embedding external documents verbatim;
# their quoted "links" are not ours to keep alive.
SKIP_FILES = {"PAPERS.md", "SNIPPETS.md"}
# Code trees whose *.md mentions must resolve.
CODE_DIRS = ("src", "tools", "bench", "tests", "examples", "scripts")
MD_PATH_RE = re.compile(r"[A-Za-z0-9_./-]+\.md\b")


def markdown_files():
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in sorted(filenames):
            if name.endswith(".md") and name not in SKIP_FILES:
                yield os.path.join(dirpath, name)


def check_file(path):
    broken = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            # Blockquotes quote external documents verbatim (e.g. the
            # retrieved abstracts in PAPERS.md) — not our links.
            if line.lstrip().startswith(">"):
                continue
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path),
                                 target.split("#", 1)[0]))
                if not os.path.exists(resolved):
                    broken.append((lineno, target))
    return broken


def dangling_md_mentions():
    """(file, line, path) for each *.md path in code that does not exist."""
    for top in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT,
                                                                 top)):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8", errors="replace") as f:
                    for lineno, line in enumerate(f, start=1):
                        for match in MD_PATH_RE.finditer(line):
                            target = match.group(0)
                            if not any(os.path.exists(os.path.join(base,
                                                                   target))
                                       for base in (REPO_ROOT, dirpath)):
                                yield path, lineno, target


def main():
    total_links = 0
    failures = []
    for path in markdown_files():
        broken = check_file(path)
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as f:
            total_links += sum(1 for _ in LINK_RE.finditer(f.read()))
        for lineno, target in broken:
            failures.append(f"{rel}:{lineno}: dead link -> {target}")
    for path, lineno, target in dangling_md_mentions():
        rel = os.path.relpath(path, REPO_ROOT)
        failures.append(f"{rel}:{lineno}: cites missing document {target}")
    if failures:
        print("\n".join(failures))
        print(f"\n{len(failures)} dead link(s).")
        return 1
    print(f"all relative markdown links resolve ({total_links} links "
          f"checked), and every *.md path cited from "
          f"{'/, '.join(CODE_DIRS)}/ exists.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
