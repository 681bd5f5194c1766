"""The output digests of tools/fingerprint.py, on inputs small enough for tier-1."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
_SPEC = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def small_digests():
    return (fingerprint.preset_digest(("fig3a",)), fingerprint.point_digest(4),
            fingerprint.oracle_digest(3), fingerprint.threshold_digest(("fig3a",)),
            fingerprint.point_digest(4, "input_output"))


def test_digests_repeat():
    digests = small_digests()
    assert small_digests() == digests
    assert len(set(digests)) == 5 and all(len(digest) == 64 for digest in digests)


def test_a_changed_preset_cell_changes_its_digest(monkeypatch):
    before = fingerprint.preset_digest(("fig3a",))
    columns = fingerprint.cli.sweep_columns

    def one_cell_changed(spec):
        changed = columns(spec)
        changed["LN_qm"][0] += 1.0
        return changed

    monkeypatch.setattr(fingerprint.cli, "sweep_columns", one_cell_changed)
    assert fingerprint.preset_digest(("fig3a",)) != before
