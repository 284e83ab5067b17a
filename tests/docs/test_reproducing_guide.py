"""Pin the reproducing-the-paper walkthrough against the code it documents.

The guide promises runnable commands and expected-output excerpts for every
paper artefact.  These dependency-free checks (no mkdocs, no simulation)
parse the guide and assert that:

* every ``python examples/...`` command references a script that exists and
  whose documented flags are real argparse options of that script;
* every pinned output excerpt matches what the formatting code actually
  emits (table headers) or what the example prints (section titles);
* the guide cross-links the timing-and-energy-model guide and vice versa.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
GUIDE = REPO / "docs" / "guides" / "reproducing-the-paper.md"
TIMING_GUIDE = REPO / "docs" / "guides" / "timing-and-energy-model.md"

_COMMAND = re.compile(r"^(?:PYTHONPATH=\S+\s+)?python (\S+\.py|-m \S+)(.*)$")
_FLAG = re.compile(r"(--[a-z][a-z0-9-]*)")


def guide_commands():
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", GUIDE.read_text(), re.DOTALL):
        for line in block.strip().splitlines():
            match = _COMMAND.match(line.strip())
            if match:
                commands.append((match.group(1), match.group(2)))
    return commands


def test_guide_exists_and_covers_every_artefact():
    text = GUIDE.read_text()
    for artefact in ("Table I", "Figure 3", "distribution"):
        assert artefact in text, f"guide does not cover {artefact}"


def test_every_documented_command_references_a_real_script():
    commands = guide_commands()
    assert len(commands) >= 4, "guide lost its runnable commands"
    for target, _args in commands:
        if target.startswith("-m "):
            continue  # module invocations (pytest) are checked below
        assert (REPO / target).is_file(), f"guide references missing {target}"


def test_every_documented_flag_is_a_real_argparse_option():
    for target, args in guide_commands():
        if target.startswith("-m "):
            continue
        source = (REPO / target).read_text()
        for flag in _FLAG.findall(args):
            assert f'"{flag}"' in source, f"{target} has no argparse flag {flag}"


def test_timing_backend_flag_is_documented_on_each_artefact_command():
    from repro.analysis.measure import TIMING_BACKENDS

    example_commands = [
        (t, a) for t, a in guide_commands() if t.startswith("examples/")
    ]
    assert len(example_commands) >= 4
    for target, args in example_commands:
        values = re.findall(r"--timing-backend\s+(\S+)", args)
        assert values, f"{target} command lost --timing-backend"
        for value in values:
            assert value in TIMING_BACKENDS, f"{target}: --timing-backend {value}"


def test_table1_header_excerpt_matches_formatter():
    """The pinned Table-I header is what format_table1 actually emits."""
    import sys

    sys.path.insert(0, str(REPO / "src"))
    try:
        from repro.analysis.tables import TABLE1_COLUMNS
    finally:
        sys.path.pop(0)
    text = GUIDE.read_text()
    for _key, label in TABLE1_COLUMNS:
        assert label in text, f"Table-I column {label!r} missing from the guide excerpt"


def test_figure3_header_excerpt_matches_formatter():
    """The pinned Figure-3 header is the format_figure3 header line."""
    header = "VDD (V)  Avg Latency (ps)  Max Latency (ps)  Functional  Correct"
    assert header in GUIDE.read_text()
    source = (REPO / "src" / "repro" / "analysis" / "tables.py").read_text()
    assert header in source, "format_figure3 header changed; update the guide"


def test_distribution_excerpts_match_the_example():
    """The pinned section titles are printed verbatim by the example."""
    example = (REPO / "examples" / "latency_distribution.py").read_text()
    text = GUIDE.read_text()
    for excerpt in (
        "Positive-vote distribution:",
        "Comparator decision-depth distribution (1 = decided at the MSB):",
        "Mean latency by comparator decision depth:",
    ):
        assert excerpt in text, f"guide lost the excerpt {excerpt!r}"
        assert excerpt in example, f"example no longer prints {excerpt!r}"


def test_guides_cross_link_each_other():
    assert "timing-and-energy-model.md" in GUIDE.read_text()
    assert "reproducing-the-paper.md" in TIMING_GUIDE.read_text()
    backend_guide = (REPO / "docs" / "guides" / "choosing-a-backend.md").read_text()
    assert "timing-and-energy-model.md" in backend_guide
    assert "reproducing-the-paper.md" in backend_guide
