"""tools/cut_accuracy.py on a few of its states, small enough for tier-1."""

import itertools

from _tools import load_tool

cut_accuracy = load_tool("cut_accuracy")


def test_first_point_stream_states_meet_the_bound(capsys):
    blocks = cut_accuracy.accepted_blocks(itertools.islice(cut_accuracy.point_stream_points(), 20))
    assert blocks.ndim == 4 and blocks.shape[1:] == (2, 3, 3) and len(blocks) >= 10
    assert cut_accuracy.check("point_stream", blocks) <= cut_accuracy.WORST_BOUND
    assert capsys.readouterr().out.startswith(f"point_stream: {len(blocks)} states")
