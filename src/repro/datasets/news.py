"""Synthetic news corpus (Section 6.2, News).

The paper used Reuters-21578 (19,043 English news articles).  We generate a
corpus with the same cardinality and Zipf-distributed vocabulary so that
word-containment selectivities match a real corpus: frequent words appear
in most articles, rare words in few.  Per-article word statistics (average
and maximum word length) are materialised at generation time.

Rows are article handles.  ``contains_word`` takes an interned word id —
the query modules expose :data:`QUERY_WORDS` with ids for the word list the
containment family samples from.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from ..lang.functions import FunctionTable, LibraryFunction
from .records import Dataset, check_size, zipf_cdf

__all__ = ["generate_news", "QUERY_WORDS"]

# The containment family's word list (Section 6.2 News Q1); frequency rank
# determines selectivity through the Zipf draw below.
QUERY_WORDS = [
    "market", "oil", "trade", "bank", "profit", "shares", "grain",
    "dollar", "tonnes", "merger", "crude", "wheat", "acquisition",
]

_VOCABULARY = 5000


def _word_length(word_id: int) -> int:
    # Common (low-id) words are short, rare words longer — as in English.
    return 2 + (word_id % 5) + (1 if word_id > 200 else 0) + (word_id % 7 == 0) * 3


def generate_news(articles: int = 19043, seed: int = 21578) -> Dataset:
    check_size("articles", articles)
    rng = random.Random(seed)
    draw = rng.random
    cdf = zipf_cdf(_VOCABULARY)
    last = _VOCABULARY - 1
    length_of = [_word_length(w) for w in range(_VOCABULARY)]

    word_ids = {w: i * 37 % _VOCABULARY for i, w in enumerate(QUERY_WORDS, start=3)}
    contains: list[set[int]] = []
    avg_len_x10: list[int] = []
    max_len: list[int] = []
    word_counts: list[int] = []
    words: list[list[int]] = []

    for _ in range(articles):
        n_words = max(20, int(rng.gauss(130, 60)))
        # One Zipf draw per word, in the order `zipf_sample` would make them.
        sequence = [bisect_left(cdf, draw(), 0, last) for _ in range(n_words)]
        lengths = [length_of[w] for w in sequence]
        contains.append(set(sequence))
        words.append(sequence)
        word_counts.append(n_words)
        avg_len_x10.append(round(sum(lengths) / n_words * 10))
        max_len.append(max(lengths))

    functions = FunctionTable(
        [
            # Scanning an article for a word is proportional to its length;
            # we charge a representative fixed cost for the family.
            LibraryFunction(
                "contains_word",
                lambda a, w: 1 if w in contains[a] else 0,
                cost=90,
            ),
            LibraryFunction("avg_word_length", lambda a: avg_len_x10[a], cost=120),
            LibraryFunction("max_word_length", lambda a: max_len[a], cost=120),
            LibraryFunction("word_count", lambda a: word_counts[a], cost=60),
        ]
    )
    return Dataset(
        name="news",
        rows=list(range(articles)),
        functions=functions,
        description=(
            f"{articles} synthetic articles with Zipf vocabulary "
            f"(Reuters-21578 scale); avg word length fixed-point x10"
        ),
        meta={"word_ids": word_ids, "vocabulary": _VOCABULARY, "words": words},
    )
