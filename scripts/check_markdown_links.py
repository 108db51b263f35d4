#!/usr/bin/env python
"""Offline markdown link checker for the repository's docs.

Validates every inline link and image in the repo's markdown files:

* relative links must point at an existing file or directory;
* ``#anchor`` fragments (same-file or cross-file) must match a heading in
  the target file, using GitHub's slugification rules;
* external links (http/https/mailto) are syntax-checked only — CI runs
  offline, so reachability is out of scope;
* in ``README.md`` and ``docs/*.md``, every backticked dotted name that
  starts with ``repro.`` must import or resolve as an attribute, so a page
  cannot keep naming an API after it is deleted.  ``CHANGES.md`` and
  ``ROADMAP.md`` are not checked: they name deleted APIs on purpose;
* every ``*.md`` path named in a Python file under ``src/``, ``scripts/``
  or ``benchmarks/`` (a docstring or comment pointing the reader at a
  page) must exist relative to the repo root or under ``docs/``.
  ``tests/`` is not checked: its fixtures name missing pages on purpose.

Exits non-zero listing every broken link and name.  Used by the CI docs
job and by ``tests/test_docs.py``.

Run::

    python scripts/check_markdown_links.py [root]
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

#: The checkout's package sources, so code names resolve without an install.
_SRC = Path(__file__).resolve().parent.parent / "src"

#: Directories never scanned for markdown files.
SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", ".hypothesis", "node_modules"}

#: Inline markdown links/images: [text](target) / ![alt](target).
_LINK = re.compile(r"!?\[[^\]\[]*\]\(([^()\s]+(?:\([^()\s]*\))?)\)")

#: ATX headings, used to build the anchor table of each file.
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

#: Fenced code blocks are stripped before link extraction.
_FENCE = re.compile(r"```.*?```", re.DOTALL)

#: A code span that opens with a dotted ``repro.`` name (anything after
#: the name, such as call arguments, is ignored).
_CODE_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")

#: A ``*.md`` path in Python source; the lookbehind skips URL tails.
_SOURCE_PAGE = re.compile(r"(?<![\w./:-])[\w-][\w./-]*\.md\b")

#: Directories whose Python files may name pages.
SOURCE_DIRS = ("src", "scripts", "benchmarks")


def _strip_fences(text: str) -> str:
    """Blank out fenced code blocks, preserving line numbering."""
    return _FENCE.sub(lambda match: "\n" * match.group(0).count("\n"), text)


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slugification (close enough for ASCII)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root: Path) -> list[Path]:
    """Every tracked-looking markdown file under ``root``."""
    files = []
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.parts):
            continue
        files.append(path)
    return files


def heading_anchors(path: Path) -> set[str]:
    text = _strip_fences(path.read_text(encoding="utf-8"))
    return {github_slug(match.group(1)) for match in _HEADING.finditer(text)}


def check_file(path: Path, root: Path) -> list[str]:
    """All broken links in one markdown file, as human-readable strings."""
    problems = []
    text = _strip_fences(path.read_text(encoding="utf-8"))
    for match in _LINK.finditer(text):
        target = match.group(1)
        line = text[: match.start()].count("\n") + 1
        where = f"{path.relative_to(root)}:{line}"
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            if github_slug(target[1:]) not in heading_anchors(path):
                problems.append(f"{where}: missing anchor {target!r}")
            continue
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            problems.append(f"{where}: missing file {target!r}")
            continue
        if anchor:
            if not resolved.is_file() or resolved.suffix != ".md":
                problems.append(
                    f"{where}: anchor on non-markdown target {target!r}"
                )
            elif github_slug(anchor) not in heading_anchors(resolved):
                problems.append(f"{where}: missing anchor {target!r}")
    return problems


def resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.c`` names an importable module or an attribute
    of one (the longest importable prefix, then attribute lookups)."""
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_code_names(path: Path, root: Path) -> list[str]:
    """Every backticked ``repro.`` name in one file that does not resolve."""
    problems = []
    text = _strip_fences(path.read_text(encoding="utf-8"))
    for match in _CODE_NAME.finditer(text):
        if not resolves(match.group(1)):
            line = text[: match.start()].count("\n") + 1
            problems.append(
                f"{path.relative_to(root)}:{line}: unknown code name "
                f"{match.group(1)!r}"
            )
    return problems


def check_source_pages(root: Path) -> list[str]:
    """Every ``*.md`` path named in a Python file under ``SOURCE_DIRS``
    that exists neither relative to ``root`` nor under ``root/docs``."""
    problems = []
    paths = [path for name in SOURCE_DIRS for path in (root / name).rglob("*.py")]
    for path in sorted(paths):
        text = path.read_text(encoding="utf-8")
        for match in _SOURCE_PAGE.finditer(text):
            page = match.group(0)
            if not ((root / page).is_file() or (root / "docs" / page).is_file()):
                line = text[: match.start()].count("\n") + 1
                problems.append(
                    f"{path.relative_to(root)}:{line}: missing file {page!r}"
                )
    return problems


def check_tree(root: Path) -> tuple[int, list[str]]:
    """Check every markdown file under ``root``, the code names of
    ``README.md`` and ``docs/*.md``, and the pages Python files under
    ``SOURCE_DIRS`` name.

    Returns ``(files_checked, problems)``.
    """
    root = root.resolve()
    problems = []
    files = markdown_files(root)
    for path in files:
        problems.extend(check_file(path, root))
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        if path.is_file():
            problems.extend(check_code_names(path, root))
    problems.extend(check_source_pages(root))
    return len(files), problems


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    checked, problems = check_tree(root)
    for problem in problems:
        print(f"BROKEN  {problem}")
    print(f"checked {checked} markdown file(s): {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
