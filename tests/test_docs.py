"""Documentation consistency: referenced files, modules, and scripts exist.

Docs rot silently; these tests tie the high-traffic references in
README/DESIGN/EXPERIMENTS to the filesystem so a rename breaks the build
instead of the reader.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def text_of(name: str) -> str:
    return (ROOT / name).read_text()


class TestTopLevelDocsExist:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGELOG.md",
            "CONTRIBUTING.md", "docs/algorithms.md", "docs/datasets.md",
            "docs/reproduction.md", "docs/api.md", "docs/durability.md",
        ],
    )
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 200, name


class TestReferencedPathsExist:
    def test_readme_example_scripts(self):
        for match in re.findall(r"`(examples/\w+\.py)`", text_of("README.md")):
            assert (ROOT / match).exists(), match

    def test_design_bench_targets(self):
        for match in re.findall(
            r"`(benchmarks/\w+\.py)", text_of("DESIGN.md")
        ):
            assert (ROOT / match).exists(), match

    def test_design_module_paths(self):
        for match in re.findall(
            r"`(repro/[\w/]+\.py)`", text_of("DESIGN.md")
        ):
            assert (ROOT / "src" / match).exists(), match

    def test_experiments_bench_references(self):
        for match in re.findall(
            r"`(bench_\w+\.py)`", text_of("EXPERIMENTS.md")
        ):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_reproduction_guide_commands(self):
        for match in re.findall(
            r"benchmarks/(bench_\w+\.py)", text_of("docs/reproduction.md")
        ):
            assert (ROOT / "benchmarks" / match).exists(), match


REFERENCE_DOCS = ["README.md", "CONTRIBUTING.md"] + sorted(
    str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md")
)


class TestCommandReferencesExist:
    """Commands and data files the user-facing docs tell readers to use."""

    @pytest.mark.parametrize("name", REFERENCE_DOCS)
    def test_python_m_modules(self, name):
        for module in re.findall(
            r"python3?\s+-m\s+(repro(?:\.\w+)+)", text_of(name)
        ):
            path = ROOT / "src" / Path(*module.split("."))
            assert (
                path.with_suffix(".py").exists()
                or (path / "__init__.py").exists()
            ), f"{name}: {module}"

    @pytest.mark.parametrize("name", REFERENCE_DOCS)
    def test_script_and_result_paths(self, name):
        for match in re.findall(
            r"\b((?:scripts|perfbench)/[\w/]+\.py|results/[\w*]+\.json)\b",
            text_of(name),
        ):
            assert list(ROOT.glob(match)), f"{name}: {match}"


class TestPublicAPIInDocs:
    def test_api_doc_solver_names_resolve(self):
        """The solver table in docs/api.md names real top-level classes."""
        import repro

        for name in (
            "GAPBasedSolver", "GreedySolver", "RegretSolver", "ExactSolver",
            "ILPSolver", "LocalSearchImprover", "UtilityFill", "MatchingFill",
            "IEPEngine", "BatchIEPEngine", "EBSNPlatform", "OperationStream",
        ):
            assert name in text_of("docs/api.md"), name
            assert hasattr(repro, name), name

    def test_all_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
