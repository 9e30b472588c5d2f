"""``tools/ab_inprocess.py`` at small sizes: two copies of one checkout
agree and are timed; a copy whose fingerprints or search replies differ
exits 1 untimed."""

import importlib.util
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "ab_inprocess", os.path.join(ROOT, "tools", "ab_inprocess.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BIG", 300)
    monkeypatch.setattr(module, "LIVE", 50)
    monkeypatch.setattr(module, "CHURN", 100)
    monkeypatch.setattr(module, "READS", 200)
    return module


def test_two_copies_of_one_checkout_are_timed(tool, capsys):
    assert tool.main([ROOT, ROOT, "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 rounds; times in ms\n")
    for task in ("fingerprint threshold", "fingerprint paired-cap", "fingerprint avl",
                 "search paired-cap", "search paired", "search paper-check",
                 "search long-spine", "search l-treap",
                 "churn zipzip", "churn dynamic-whi", "churn paired"):
        assert "\n" + task + " " in out


def _edited_copy(tmp_path, module, old, new):
    """A copy of the checkout's ``src/hidict`` with ``old`` replaced by
    ``new``, once, in ``module``."""
    shutil.copytree(os.path.join(ROOT, "src", "hidict"), tmp_path / "src" / "hidict",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "hidict" / module
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    return str(tmp_path)


def test_different_fingerprints_exit_before_timing(tool, tmp_path, capsys):
    # a zip-zip kind renamed: every zip-zip based fingerprint differs, AVL's not
    _edited_copy(tmp_path, "structures.py", 'kind = "zipzip"\n', 'kind = "zipzip?"\n')
    assert tool.main([ROOT, str(tmp_path), "--rounds", "1"]) == 1
    assert capsys.readouterr().out == (
        "fingerprints differ between the two sides: fingerprint threshold, "
        "fingerprint paired-cap, churn zipzip, churn dynamic-whi, churn paired\n")


def test_different_search_replies_exit_before_timing(tool, tmp_path, capsys):
    # a paired budget one larger moves the comparison counts of some
    # replies, and no fingerprint
    copy = _edited_copy(tmp_path, "pairing.py", "return budget if budget > 1 else 1",
                        "return (budget if budget > 1 else 1) + 1")
    assert tool.main([ROOT, copy, "--rounds", "1"]) == 1
    assert capsys.readouterr().out == (
        "search replies differ between the two sides: search paired-cap, search paired, "
        "search paper-check, search long-spine\n")
