"""Shared fixtures and the acceptance-criteria report hook."""

import functools
import os
import tempfile
from pathlib import Path

# one BLAS/OpenMP thread, set before numpy loads, as perfbench/run.py does:
# wall-time bounds then depend less on what else the machine is running
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from kegat.kgstore import load_graph

# Acceptance tests append one "PASS: ..." / "FAIL: ..." line per criterion;
# the terminal-summary hook prints them after the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


SUGAR_KB_ROWS = [
    ("sugar", "/r/UsedFor", "sweetening_coffee", 3.5),
    ("sugar", "/r/IsA", "sweet_food", 2.0),
    ("sugar", "/r/IsA", "carbohydrate", 0.8),
    ("coffee", "/r/IsA", "drink", 2.5),
    ("coffee", "/r/AtLocation", "cup", 1.2),
]


def write_kb(path, rows):
    lines = [f"{h}\t{r}\t{t}\t{w}" for h, r, t, w in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def sugar_kb_path(tmp_path):
    return write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)


@pytest.fixture
def sugar_graph(sugar_kb_path):
    return load_graph(sugar_kb_path)


@functools.lru_cache(maxsize=1)
def sugar_graph_cached():
    """Module-level sugar graph for non-fixture (hypothesis) tests."""
    with tempfile.TemporaryDirectory() as tmp:
        return load_graph(write_kb(Path(tmp) / "kb.tsv", SUGAR_KB_ROWS))


def numeric_grad(f, x, step=1e-6):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2 * step)
        it.iternext()
    return g


def check_operand_grads(loss, operands):
    """Run backward on the scalar tensor `loss()` and compare each of the
    `operands` tensors' gradient with central differences of the loss,
    taken by perturbing that tensor's data in place."""
    loss().backward()
    for name, t in operands.items():
        x0 = t.data.copy()

        def f(x):
            t.data[...] = x
            try:
                return float(loss().data)
            finally:
                t.data[...] = x0

        np.testing.assert_allclose(t.grad, numeric_grad(f, x0), rtol=1e-6,
                                   atol=1e-9, err_msg=name)
