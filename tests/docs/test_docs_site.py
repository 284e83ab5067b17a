"""Dependency-free integrity checks for the mkdocs documentation site.

The real build (``mkdocs build --strict``) runs in the CI ``docs`` job,
where the ``[docs]`` extra is installed.  These tests pin the failure modes
strict mode would catch — dangling nav entries, dead internal links,
``::: module`` directives that do not import — without requiring mkdocs in
the tier-1 environment, so a broken docs tree fails fast everywhere.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
DOCS = REPO / "docs"
MKDOCS_YML = REPO / "mkdocs.yml"

#: `- Title: path.md` nav entries (also matches a bare `- path.md`).
_NAV_PAGE = re.compile(r"^\s*-\s+(?:[^:#]+:\s+)?(\S+\.md)\s*$")
#: Markdown links to local .md targets (external http(s) links excluded).
_MD_LINK = re.compile(r"\]\((?!https?://)([^)#]+\.md)(?:#[^)]*)?\)")
#: mkdocstrings autodoc directives.
_AUTODOC = re.compile(r"^:::\s+([\w.]+)\s*$", re.MULTILINE)


def nav_pages():
    return [
        match.group(1)
        for line in MKDOCS_YML.read_text().splitlines()
        if (match := _NAV_PAGE.match(line))
    ]


def doc_files():
    return sorted(DOCS.rglob("*.md"))


def test_docs_tree_exists_and_is_nontrivial():
    assert MKDOCS_YML.is_file()
    pages = doc_files()
    assert len(pages) >= 20  # index + 4 guides + 11 architecture + 5 API pages
    for page in pages:
        assert page.read_text().lstrip().startswith("#"), f"{page} has no title"


def test_every_nav_entry_resolves_to_a_real_page():
    pages = nav_pages()
    assert "index.md" in pages
    assert len(pages) >= 20
    for rel in pages:
        assert (DOCS / rel).is_file(), f"mkdocs.yml nav references missing {rel}"


def test_every_page_is_reachable_from_the_nav():
    navigated = {str((DOCS / rel).resolve()) for rel in nav_pages()}
    for page in doc_files():
        assert str(page.resolve()) in navigated, f"{page} not listed in mkdocs.yml nav"


def test_internal_links_resolve():
    for page in doc_files():
        for target in _MD_LINK.findall(page.read_text()):
            resolved = (page.parent / target).resolve()
            assert resolved.is_file(), f"{page}: dead link to {target}"


def test_autodoc_directives_import():
    """Every ``::: module`` the API reference renders must be importable."""
    directives = [
        (page, module)
        for page in doc_files()
        for module in _AUTODOC.findall(page.read_text())
    ]
    assert directives, "API reference pages carry no ::: directives"
    for page, module in directives:
        try:
            importlib.import_module(module)
        except Exception as err:  # pragma: no cover - the assert is the point
            pytest.fail(f"{page}: `::: {module}` does not import: {err}")


def test_autodoc_covers_the_docstring_enforced_surface():
    """The D1-enforced modules are exactly the ones the API reference renders."""
    rendered = {
        module
        for page in doc_files()
        for module in _AUTODOC.findall(page.read_text())
    }
    for expected in (
        "repro.sim.program",
        "repro.sim.program_cache",
        "repro.sim.kernels",
        "repro.sim.backends.base",
        "repro.sim.backends.batch",
        "repro.sim.backends.bitpack",
        "repro.sim.backends.event",
        "repro.sim.backends.timed",
        "repro.analysis.measure",
        "repro.analysis.latency",
        "repro.analysis.distributions",
        "repro.explore.grid",
        "repro.explore.evaluate",
        "repro.explore.store",
        "repro.explore.pareto",
        "repro.explore.queue",
        "repro.explore.fronts",
        "repro.serve.gateway",
        "repro.serve.worker",
        "repro.serve.server",
        "repro.serve.loadgen",
        "repro.obs.trace",
        "repro.obs.metrics",
        "repro.obs.profile",
        "repro.obs.schema",
    ):
        assert expected in rendered, f"{expected} missing from the API reference"
