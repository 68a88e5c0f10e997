"""The documents say what the source says.

Each fact a document states has one home: a file of the repository, a
name the package exports, a section of DESIGN.md, or the text of a
results table or an example.  These checks read README, DESIGN,
EXPERIMENTS and the verify notes (plus every ``DESIGN.md §N`` mention in
the Python sources) and fail, naming each stale statement, when a
document disagrees with that home:

* every repository path a document names exists;
* every ``repro.…`` dotted name imports (a module, or an attribute of
  one);
* every ``§N`` names a section of DESIGN.md;
* a fenced block right after ``<!-- from PATH -->`` is the file PATH
  (a ``benchmarks/results`` table) or a contiguous run of its lines
  (an ``examples/`` script, which CI runs);
* every README block but a ``sh`` or ``console`` one is such a slice,
  and every
  ``benchmarks/results/*.txt`` table but ``reach.txt`` (the reach
  recorder's report) appears in EXPERIMENTS.md exactly once;
* each document stays under its byte budget (ROADMAP item 10).
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.gate

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
BUDGETS = {"README.md": 16_000, "DESIGN.md": 40_000,
           ".claude/skills/verify/SKILL.md": 7_700}
#: Directories a path in a document may be relative to.
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")

FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
MARKER = re.compile(r"<!-- from (\S+) -->\n```\w*\n(.*?)^```$", re.M | re.S)
SPAN = re.compile(r"`([^`\n]+)`")
PATHLIKE = re.compile(r"[\w.*/-]+")
DOTTED = re.compile(r"(?<![\w/.$-])repro(?:\.[A-Za-z_]\w*)+")
SECTION = re.compile(r"§(\d+)")
DESIGN_MENTION = re.compile(r"DESIGN\.md,? (?:§|section )(\d+)")


def read(doc: str) -> str:
    return (ROOT / doc).read_text()


def prose(text: str) -> str:
    """The text outside fenced blocks (a block shows output or code, and
    names what that code names)."""
    return FENCE.sub("", text)


def design_sections() -> set:
    return {int(m) for m in re.findall(r"^## (\d+)\.", read("DESIGN.md"), re.M)}


def first_components() -> set:
    """Names that start a repository path: the top-level directories
    and the package's subpackages."""
    tops = {p.name for p in ROOT.iterdir() if p.is_dir() and p.name != ".git"}
    subs = {p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()}
    return tops | subs | {"repro"}


def named_paths(text: str):
    """Repository paths in the backticked spans of ``text``."""
    starts = first_components()
    for span in SPAN.findall(prose(text)):
        for token in span.split():
            token = token.split("::")[0]  # a pytest node id names its file
            if (
                "/" in token
                and PATHLIKE.fullmatch(token)
                and token.split("/")[0] in starts
            ):
                yield token


def exists(path: str) -> bool:
    if "*" in path:
        return any(any(base.glob(path)) for base in BASES)
    return any((base / path).exists() for base in BASES)


def resolves(dotted: str) -> bool:
    """The longest importable prefix, then attributes of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_named_paths_exist():
    missing = [
        f"{doc}: {p}" for doc in DOCS for p in named_paths(read(doc))
        if not exists(p)
    ]
    assert not missing, "paths that do not exist:\n" + "\n".join(missing)


def test_dotted_names_import():
    broken = sorted({
        f"{doc}: {name}" for doc in DOCS
        for name in DOTTED.findall(read(doc)) if not resolves(name)
    })
    assert not broken, "names that do not import:\n" + "\n".join(broken)


def test_sections_exist():
    sections = design_sections()
    bad = [
        f"{doc}: §{n}" for doc in DOCS
        for n in SECTION.findall(prose(read(doc))) if int(n) not in sections
    ]
    for tree in ("src", "tests", "benchmarks", "examples"):
        for py in sorted((ROOT / tree).rglob("*.py")):
            bad += [
                f"{py.relative_to(ROOT)}: §{n}"
                for n in DESIGN_MENTION.findall(py.read_text())
                if int(n) not in sections
            ]
    assert not bad, (
        f"DESIGN.md has sections {sorted(sections)}; cited:\n" + "\n".join(bad)
    )


def test_marked_blocks_match_their_source():
    stale = []
    for doc in DOCS:
        for path, block in MARKER.findall(read(doc)):
            source = ROOT / path
            if not source.is_file():
                stale.append(f"{doc}: {path} does not exist")
                continue
            text = source.read_text()
            if path.startswith("examples/"):
                lines, have = block.splitlines(), text.splitlines()
                ok = bool(lines) and any(
                    have[i:i + len(lines)] == lines for i in range(len(have))
                )
            else:
                ok = block == text
            if not ok:
                stale.append(f"{doc}: the block from {path} differs")
    assert not stale, "\n".join(stale)


def test_readme_code_is_examples():
    readme = read("README.md")
    marked = {block for path, block in MARKER.findall(readme)
              if path.startswith("examples/")}
    # Only shell and console blocks are exempt; an untagged block is code.
    unmarked = [
        (block.splitlines() or ["<empty block>"])[0]
        for lang, block in FENCE.findall(readme)
        if lang not in ("sh", "console") and block not in marked
    ]
    assert not unmarked, (
        "README code blocks without an examples/ marker, first lines:\n"
        + "\n".join(unmarked)
    )


def test_every_results_table_is_in_experiments_once():
    shown = [path for path, _ in MARKER.findall(read("EXPERIMENTS.md"))]
    tables = [
        f"benchmarks/results/{t.name}"
        for t in sorted((ROOT / "benchmarks" / "results").glob("*.txt"))
        if t.name != "reach.txt"
    ]
    wrong = [f"{t}: shown {shown.count(t)}x" for t in tables if shown.count(t) != 1]
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("doc", sorted(BUDGETS))
def test_document_budget(doc):
    size = len(read(doc).encode())
    assert size <= BUDGETS[doc], f"{doc} is {size} bytes, budget {BUDGETS[doc]}"
