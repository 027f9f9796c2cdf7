"""Documentation consistency: the docs describe the repo that exists."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def readme():
    return (ROOT / "README.md").read_text()


@pytest.fixture(scope="module")
def design():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments_md():
    return (ROOT / "EXPERIMENTS.md").read_text()


class TestFilesExist:
    @pytest.mark.parametrize(
        "path",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "MEASURED.md",
            "docs/algorithms.md",
            "docs/architecture.md",
            "pyproject.toml",
        ],
    )
    def test_documented_files_present(self, path):
        assert (ROOT / path).exists(), path


class TestReadme:
    def test_examples_table_matches_directory(self, readme):
        listed = set(re.findall(r"\| `(\w+\.py)` \|", readme))
        actual = {p.name for p in (ROOT / "examples").glob("*.py")}
        assert listed == actual, listed ^ actual

    def test_mentions_every_top_package(self, readme):
        for package in (
            "repro.core",
            "repro.engine",
            "repro.geometry",
            "repro.grid",
            "repro.storage",
            "repro.index",
            "repro.roadnet",
            "repro.workloads",
            "repro.bench",
            "repro.experiments",
            "repro.validate",
            "repro.lint",
        ):
            assert package in readme, package

    def test_cites_the_paper(self, readme):
        assert "ICDE 2008" in readme
        assert "top-k Unsafe Places" in readme


class TestDesign:
    def test_every_registered_experiment_indexed(self, design):
        from repro.experiments import all_experiments

        for experiment in all_experiments():
            if experiment.kind != "ablation":
                assert experiment.experiment_id in design, (
                    experiment.experiment_id
                )

    def test_bench_targets_exist(self, design):
        for target in re.findall(r"`benchmarks/(bench_\w+\.py)`", design):
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_paper_check_recorded(self, design):
        assert "Paper-text check" in design


class TestExperimentsLog:
    def test_covers_every_paper_artifact(self, experiments_md):
        for artefact in (
            "Table III",
            "Fig. 3",
            "Fig. 4",
            "Fig. 5",
            "Fig. 6",
            "Fig. 7",
            "Fig. 8",
            "Fig. 9",
        ):
            assert artefact in experiments_md, artefact

    def test_every_figure_has_a_status(self, experiments_md):
        assert experiments_md.count("Status:") >= 8

    def test_cited_result_files_exist_after_bench_run(self, experiments_md):
        results_dir = ROOT / "benchmarks" / "bench_results"
        if not results_dir.exists():
            pytest.skip("benchmarks have not been run yet")
        for name in re.findall(r"bench_results/(\w+\.txt)", experiments_md):
            assert (results_dir / name).exists(), name


class TestMeasured:
    def test_measured_covers_all_experiments(self):
        from repro.experiments import all_experiments

        measured = (ROOT / "MEASURED.md").read_text()
        for experiment in all_experiments():
            assert experiment.title in measured, experiment.experiment_id


class TestArchitecture:
    def test_rule_tables_list_exactly_the_registered_rules(self):
        from repro.lint import RULES

        architecture = (ROOT / "docs" / "architecture.md").read_text()
        documented = set(
            re.findall(r"^\| (RPL\w+) ", architecture, flags=re.MULTILINE)
        )
        assert documented == set(RULES), documented ^ set(RULES)
