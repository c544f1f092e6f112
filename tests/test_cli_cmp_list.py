"""tools/cli_cmp.py's expected list applies only against the base it names."""

import importlib.util
from pathlib import Path

import pytest

import gcalc.lyapunov

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_cmp.py"
BASE = "989a2998c4ec199a143a268aa300fdd35c5cccca"
OTHER = "4446a59fd11495e456745457b7908850b6df22fd"


def _load():
    spec = importlib.util.spec_from_file_location("cli_cmp", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cli_cmp(tmp_path, monkeypatch):
    module = _load()
    monkeypatch.setattr(module, "EXPECTED", tmp_path / "expected.txt")
    return module


def test_the_committed_list_names_a_base_and_known_cases():
    module = _load()
    base, names = module.expected_cases()
    assert base is not None and len(base) >= 7
    assert names <= set(module.cases())


@pytest.mark.parametrize("text, base_sha, applies", [
    (f"# base: {BASE}\ngheat_square  # a comment\nsimulate_band\n", BASE, True),
    (f"#base:{BASE[:7]}\ngheat_square\nsimulate_band\n", BASE, True),
    (f"# base: {BASE.upper()[:12]}\ngheat_square\nsimulate_band\n", BASE, True),
    (f"# base: {OTHER}\ngheat_square\nsimulate_band\n", BASE, False),
    (f"# base: {BASE[:6]}\ngheat_square\nsimulate_band\n", BASE, False),
    ("gheat_square\nsimulate_band\n", BASE, False),
])
def test_entries_apply_only_against_their_base(cli_cmp, capsys, text, base_sha, applies):
    cli_cmp.EXPECTED.write_text(text)
    assert cli_cmp.expected_cases()[1] == {"gheat_square", "simulate_band"}
    assert cli_cmp.listed_for(base_sha) == ({"gheat_square", "simulate_band"} if applies else set())
    skipped = [line for line in capsys.readouterr().out.splitlines() if line.startswith("SKIP")]
    assert len(skipped) == (0 if applies else 2)


def test_no_list_lists_nothing(cli_cmp):
    assert cli_cmp.expected_cases() == (None, set())
    assert cli_cmp.listed_for(BASE) == set()


def test_every_lyapunov_condition_has_byte_compare_cases():
    # a condition added to the library needs its own cli_cmp cases
    assert set(_load().CONDITIONS) == set(gcalc.lyapunov.CONDITIONS)
