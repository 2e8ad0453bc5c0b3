"""repro-paper CLI tests (small scale)."""

import pytest

from repro.experiments import cli as repro_paper_cli
from repro.experiments.cli import main as repro_paper_main
from repro.experiments.dataset import clear_cache


class TestReproPaper:
    def test_full_pipeline_small(self, tmp_path, capsys):
        clear_cache()
        code = repro_paper_main(
            [
                "--flows", "12",
                "--skip-mitigation",
                "--export-dir", str(tmp_path / "figures"),
                "--seed", "42",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for marker in (
            "Table 1", "Figure 1a", "Figure 3", "Table 3", "Table 4",
            "Table 5", "Table 6", "Table 7", "Figure 11", "Figure 12",
            "Figure 2",
        ):
            assert marker in out, marker
        assert list((tmp_path / "figures").iterdir())

    def test_mitigation_tables_included(self, capsys):
        clear_cache()
        code = repro_paper_main(
            ["--flows", "8", "--mitigation-flows", "15", "--seed", "43"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 8" in out
        assert "Table 9" in out

    def test_policies_without_the_paper_trio_rejected_before_simulating(
        self, monkeypatch, capsys
    ):
        def no_dataset(*args, **kwargs):
            raise AssertionError("build_dataset called")

        monkeypatch.setattr(repro_paper_cli, "build_dataset", no_dataset)
        with pytest.raises(SystemExit) as excinfo:
            repro_paper_main(["--flows", "4", "--policies", "tracks"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--policies must include native, tlp, srto" in captured.err
