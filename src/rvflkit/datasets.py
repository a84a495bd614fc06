"""Built-in datasets used for demos and spot checks."""

from __future__ import annotations

from itertools import product

import numpy as np

from .data import Dataset

_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),  # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),  # columns
    (0, 4, 8), (2, 4, 6),             # diagonals
)


def _has_line(board, player) -> bool:
    return any(all(board[i] == player for i in line) for line in _LINES)


def _reachable_win(board, player) -> bool:
    """A win is reachable only if some winning stone, once removed, breaks every line
    (the game ends immediately, so the last move must have completed the win)."""
    cells = [i for i in range(9) if board[i] == player]
    for i in cells:
        trial = list(board)
        trial[i] = 0
        if not _has_line(trial, player):
            return True
    return False


def tic_tac_toe_dataset() -> Dataset:
    """All 958 legal tic-tac-toe endgame boards, labeled by whether X won.

    X moves first. Cells are encoded x=1, o=-1, blank=0; the positive class
    ("x wins") has 626 boards, the rest (O wins or draws) 332.
    """
    rows, labels = [], []
    for board in product((1, -1, 0), repeat=9):
        nx = board.count(1)
        no = board.count(-1)
        x_win = _has_line(board, 1)
        o_win = _has_line(board, -1)
        if x_win and not o_win and nx == no + 1 and _reachable_win(board, 1):
            rows.append(board)
            labels.append(0)  # positive: X wins
        elif o_win and not x_win and nx == no and _reachable_win(board, -1):
            rows.append(board)
            labels.append(1)
        elif not x_win and not o_win and nx + no == 9 and nx == no + 1:
            rows.append(board)
            labels.append(1)
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels),
                   ("positive", "negative"), name="tic_tac_toe")
