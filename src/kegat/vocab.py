"""Token vocabulary with reserved marker tokens."""

from __future__ import annotations

from typing import Iterable, List

CLS, SEP, PAD, UNK = "[CLS]", "[SEP]", "[PAD]", "[UNK]"
RESERVED = (CLS, SEP, PAD, UNK)


class Vocab:
    """Token <-> id bijection; ids 0..3 are [CLS], [SEP], [PAD], [UNK]."""

    def __init__(self, tokens: List[str]):
        if list(tokens[:4]) != list(RESERVED):
            raise ValueError("first four vocab entries must be the reserved tokens")
        self.tokens = list(tokens)
        self._ids = {t: i for i, t in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise ValueError("duplicate token in vocab")

    @classmethod
    def build(cls, corpus_tokens: Iterable[str]) -> "Vocab":
        extra = sorted(set(corpus_tokens) - set(RESERVED))
        return cls(list(RESERVED) + extra)

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self._ids.get(token, self._ids[UNK])

    def encode(self, tokens: Iterable[str]) -> List[int]:
        return [self.lookup(t) for t in tokens]

    def token(self, idx: int) -> str:
        return self.tokens[idx]
