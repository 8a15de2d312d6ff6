"""Independent oracle for the knowledge-injection layout.

`layout(trunk, branches)` re-derives the injected sequence purely from the
documented rules (flatten order, soft positions, pairwise visibility), without
importing the library. The tests compare `kemb.flatten` against it on random
trees, and its output for the sugar/coffee sentence is the committed
kemb_golden.json. Run from the repo root to regenerate that file:

    python3 tests/data/make_kemb_golden.py
"""

import json
from pathlib import Path

TRUNK = ["[CLS]", "he", "put", "sugar", "in", "his", "coffee", "[SEP]"]

# (anchor trunk index, realized tokens, edge weight); per-entity limit 2 keeps
# sugar's two strongest edges and discards carbohydrate (weight 0.8).
BRANCHES = [
    (3, "sugar is used to sweetening coffee".split(), 3.5),
    (3, "sugar is a sweet food".split(), 2.0),
    (6, "coffee is a drink".split(), 2.5),
    (6, "coffee is at cup".split(), 1.2),
]

GOLDEN_PATH = Path(__file__).parent / "kemb_golden.json"


def layout(trunk, branches):
    """Tokens, soft positions, trunk mask (0/1) and visibility (0/1 rows)."""
    # Flatten order: each trunk token followed by its branches, strongest first.
    order = []   # (kind, trunk index or branch number, token within branch)
    for p in range(len(trunk)):
        order.append(("trunk", p, -1))
        anchored = [bi for bi, b in enumerate(branches) if b[0] == p]
        anchored.sort(key=lambda bi: -branches[bi][2])
        for bi in anchored:
            for ti in range(len(branches[bi][1])):
                order.append(("branch", bi, ti))

    tokens, soft_pos, trunk_mask = [], [], []
    for kind, a, ti in order:
        if kind == "trunk":
            tokens.append(trunk[a])
            soft_pos.append(a)
            trunk_mask.append(1)
        else:
            anchor, toks, _ = branches[a]
            tokens.append(toks[ti])
            soft_pos.append(anchor + 1 + ti)
            trunk_mask.append(0)

    n = len(order)
    vis = [[0] * n for _ in range(n)]
    for i, (ki, ai, _) in enumerate(order):
        for j, (kj, aj, _) in enumerate(order):
            if ki == "trunk" and kj == "trunk":
                vis[i][j] = 1
            elif ki == "branch" and kj == "branch":
                vis[i][j] = int(ai == aj)
            elif ki == "branch":
                vis[i][j] = int(branches[ai][0] == aj)
            else:
                vis[i][j] = int(branches[aj][0] == ai)

    return {"tokens": tokens, "soft_pos": soft_pos,
            "trunk_mask": trunk_mask, "visibility": vis}


def golden_text():
    """The exact contents of kemb_golden.json."""
    golden = {"trunk": TRUNK, **layout(TRUNK, BRANCHES)}
    return json.dumps(golden, indent=1) + "\n"


def main():
    text = golden_text()
    GOLDEN_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(json.loads(text)['tokens'])} positions)")


if __name__ == "__main__":
    main()
