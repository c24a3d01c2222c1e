import os

import pytest

from msgkit import (
    FormSpace,
    Matrix,
    PointContext,
    QQ,
    Subspace,
    SymplecticForm,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def golden_compare(name: str, text: str) -> None:
    """Byte-compare against a committed golden file.

    A missing golden fails; set MSGKIT_REGEN_GOLDEN=1 to (re)write it.
    """
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("MSGKIT_REGEN_GOLDEN") == "1":
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    if not os.path.exists(path):
        pytest.fail(f"missing golden {name}; set MSGKIT_REGEN_GOLDEN=1 to record it")
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == text, f"golden mismatch: {name}"


def random_alternating(field, n, rng):
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = field.random(rng)
            rows[i][j] = v
            rows[j][i] = field.neg(v)
    return Matrix(field, n, n, rows)


def random_alternating_nonsingular(field, n, rng):
    while True:
        M = random_alternating(field, n, rng)
        if M.rank() == n:
            return M


def degenerate_instance():
    """The recorded n=4, k=2, m=2 instance over Q.

    Both restriction matrices are the identity, so the two tangent
    constraints coincide and the whole pencil contracts onto u + v.
    """
    w1 = Matrix(QQ, 4, 4, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    w2 = Matrix(QQ, 4, 4, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]])
    fs = FormSpace([SymplecticForm(w1), SymplecticForm(w2)])
    V = Subspace(Matrix(QQ, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    return fs, V


@pytest.fixture
def degenerate_ctx():
    fs, V = degenerate_instance()
    return PointContext(V, fs)
