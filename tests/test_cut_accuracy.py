"""tools/cut_accuracy.py on a few of its states, small enough for tier-1."""

import importlib.util
import itertools
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cut_accuracy.py"
_SPEC = importlib.util.spec_from_file_location("cut_accuracy", _PATH)
cut_accuracy = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cut_accuracy)


def test_first_point_stream_states_meet_the_bound(capsys):
    blocks = cut_accuracy.accepted_blocks(itertools.islice(cut_accuracy.point_stream_points(), 20))
    assert blocks.ndim == 4 and blocks.shape[1:] == (2, 3, 3) and len(blocks) >= 10
    assert cut_accuracy.check("point_stream", blocks) <= cut_accuracy.WORST_BOUND
    assert capsys.readouterr().out.startswith(f"point_stream: {len(blocks)} states")
