"""Documentation invariants: pages exist, README links them, links resolve.

The same checks run in CI's docs job via ``scripts/check_markdown_links.py``;
keeping them in tier-1 means a broken docs link fails the ordinary test run
too, not just the docs job.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_PAGES = (
    "architecture.md",
    "mechanism-catalog.md",
    "strategy-store.md",
    "protocol-engine.md",
    "serving.md",
    "observability.md",
    "operations.md",
    "optimizer.md",
)


def load_checker():
    path = REPO_ROOT / "scripts" / "check_markdown_links.py"
    spec = importlib.util.spec_from_file_location("check_markdown_links", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("page", DOC_PAGES)
def test_doc_page_exists_and_has_content(page):
    path = REPO_ROOT / "docs" / page
    assert path.is_file(), f"missing docs page {page}"
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#"), f"{page} should start with a heading"
    assert len(text) > 1000, f"{page} looks like a stub"


@pytest.mark.parametrize("page", DOC_PAGES)
def test_readme_links_every_doc_page(page):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert f"docs/{page}" in readme, f"README does not link docs/{page}"


def test_no_broken_markdown_links():
    checker = load_checker()
    checked, problems = checker.check_tree(REPO_ROOT)
    assert checked >= 4 + 1  # at least the docs pages and the README
    assert problems == [], "broken links:\n" + "\n".join(problems)


def test_mechanism_catalog_covers_every_module():
    """Each mechanism module gets a section (satellite: one per mechanism)."""
    catalog = (REPO_ROOT / "docs" / "mechanism-catalog.md").read_text(
        encoding="utf-8"
    )
    mechanisms_dir = REPO_ROOT / "src" / "repro" / "mechanisms"
    skip = {"__init__", "base", "interface", "registry"}
    for module in sorted(mechanisms_dir.glob("*.py")):
        if module.stem in skip:
            continue
        assert f"`{module.stem}.py`" in catalog, (
            f"docs/mechanism-catalog.md has no section for {module.stem}.py"
        )


METRIC_NAME = re.compile(r"repro_[a-z0-9_]+")


def metric_families_in_code() -> set[str]:
    """Every string constant under ``src/repro`` that is a whole
    ``repro_*`` metric name."""
    names = set()
    for module in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if METRIC_NAME.fullmatch(node.value):
                    names.add(node.value)
    return names


def test_observability_catalog_names_every_metric_family():
    """The ``repro_*`` metric names the code spells and the ones
    docs/observability.md catalogs (each backticked on its own) are the
    same set: a new family gets documented, a deleted one leaves the
    page."""
    in_code = metric_families_in_code()
    page = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    in_docs = set(re.findall(r"`(repro_[a-z0-9_]+)`", page))
    assert sorted(in_code - in_docs) == [], "families missing from the page"
    assert sorted(in_docs - in_code) == [], "page names families no code has"


def test_no_page_names_a_metric_family_the_code_lacks():
    """Other pages (runbook queries, the serving guide) name families
    too; a deleted family must leave them as well.  A histogram's
    ``_bucket``/``_sum``/``_count`` series count as its family."""
    in_code = metric_families_in_code()
    stale = []
    for page in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        for name in METRIC_NAME.findall(page.read_text(encoding="utf-8")):
            family = re.sub(r"_(bucket|sum|count)$", "", name)
            if name not in in_code and family not in in_code:
                stale.append(f"{page.name}: {name}")
    assert stale == []


def test_checker_catches_broken_link_with_caret_in_text(tmp_path):
    """Regression: math-y link text like ``e^eps`` must not hide a broken
    target from the checker."""
    checker = load_checker()
    (tmp_path / "page.md").write_text(
        "# Page\n\nSee [the e^eps bound](missing.md).\n", encoding="utf-8"
    )
    checked, problems = checker.check_tree(tmp_path)
    assert checked == 1
    assert len(problems) == 1 and "missing.md" in problems[0]


def test_checker_reports_real_line_numbers_below_fences(tmp_path):
    checker = load_checker()
    (tmp_path / "page.md").write_text(
        "# Page\n\n```\ncode\ncode\n```\n\n[broken](missing.md)\n",
        encoding="utf-8",
    )
    _, problems = checker.check_tree(tmp_path)
    assert problems and problems[0].startswith("page.md:8:")


def test_checker_flags_code_names_that_do_not_resolve(tmp_path):
    checker = load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "page.md").write_text(
        "# Page\n\nCollect with `repro.protocol.ProtocolSession.run(x)` or\n"
        "`repro.service.ingest`; `repro.protocol.simulation.expand_users` is\n"
        "gone (the function lives on, the module path does not).\n",
        encoding="utf-8",
    )
    # Pages outside README.md and docs/ may name deleted APIs.
    (tmp_path / "CHANGES.md").write_text(
        "# Changes\n\nDeleted `repro.protocol.simulation`.\n", encoding="utf-8"
    )
    checked, problems = checker.check_tree(tmp_path)
    assert checked == 2
    assert problems == [
        "docs/page.md:4: unknown code name "
        "'repro.protocol.simulation.expand_users'"
    ]


def test_checker_flags_pages_named_in_source_that_do_not_exist(tmp_path):
    checker = load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("# Guide\n", encoding="utf-8")
    (tmp_path / "NOTES.md").write_text("# Notes\n", encoding="utf-8")
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '"""See docs/guide.md, guide.md and NOTES.md.\n\n'
        'The derivation is in DESIGN.md section 5.\n"""\n'
        "# https://example.com/README.md is a link, not a page here.\n",
        encoding="utf-8",
    )
    checked, problems = checker.check_tree(tmp_path)
    assert checked == 2
    assert problems == ["src/pkg/mod.py:3: missing file 'DESIGN.md'"]


def test_checker_flags_pages_named_in_scripts_and_benchmarks(tmp_path):
    checker = load_checker()
    (tmp_path / "README.md").write_text("# Readme\n", encoding="utf-8")
    for directory in ("scripts", "benchmarks", "tests"):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "run.py").write_text(
            '"""Results go to README.md and EXPERIMENTS.md."""\n',
            encoding="utf-8",
        )
    checked, problems = checker.check_tree(tmp_path)
    assert checked == 1
    # tests/ is left out: its fixtures name missing pages on purpose.
    assert problems == [
        "benchmarks/run.py:1: missing file 'EXPERIMENTS.md'",
        "scripts/run.py:1: missing file 'EXPERIMENTS.md'",
    ]


def test_cli_docs_mention_strategy_commands():
    page = (REPO_ROOT / "docs" / "strategy-store.md").read_text(encoding="utf-8")
    for command in ("strategy build", "strategy list", "strategy inspect",
                    "strategy prune"):
        assert command in page
