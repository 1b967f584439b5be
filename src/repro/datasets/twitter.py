"""Synthetic tweet corpus (Section 6.2, Twitter).

The paper used 11 IBM Many Eyes datasets totalling 31,152 tweets in
English, Spanish and Portuguese.  We generate tweets with the same
cardinality, a language mix, a smiley count distribution, and per-tweet
sentiment/topic scores — the quantities the paper's three query families
consume.  Sentiments and topics are fixed small vocabularies addressed by
id, mirroring "a list of common sentiments, e.g. happiness".
"""

from __future__ import annotations

import random
from itertools import accumulate

from ..lang.functions import FunctionTable, LibraryFunction
from .records import Dataset, check_size

__all__ = ["generate_twitter", "SENTIMENTS", "TOPICS", "LANGUAGES"]

SENTIMENTS = ["happiness", "anger", "sadness", "surprise", "fear", "joy"]
TOPICS = ["movies", "sports", "politics", "music", "tech", "food", "travel"]
LANGUAGES = ["en", "es", "pt"]

# en / es / pt shares; `rng.choices` draws the same from these as from weights.
_LANGUAGE_CUM_WEIGHTS = list(accumulate([0.6, 0.25, 0.15]))


def generate_twitter(tweets: int = 31152, seed: int = 1152) -> Dataset:
    check_size("tweets", tweets)
    rng = random.Random(seed)

    smileys: list[int] = []
    language: list[int] = []
    sentiment_scores: list[list[int]] = []
    topic_scores: list[list[int]] = []
    lengths: list[int] = []

    for _ in range(tweets):
        # Most tweets have no smiley; a long tail has several.
        s = 0
        while rng.random() < 0.35 and s < 6:
            s += 1
        smileys.append(s)
        language.append(rng.choices(range(3), cum_weights=_LANGUAGE_CUM_WEIGHTS)[0])
        lengths.append(rng.randrange(10, 141))
        # Scores in [0, 100]; each tweet leans toward one sentiment/topic.
        lean_s = rng.randrange(len(SENTIMENTS))
        sentiment_scores.append(
            [
                min(100, max(0, int(rng.gauss(70 if i == lean_s else 20, 15))))
                for i in range(len(SENTIMENTS))
            ]
        )
        lean_t = rng.randrange(len(TOPICS))
        topic_scores.append(
            [
                min(100, max(0, int(rng.gauss(65 if i == lean_t else 15, 18))))
                for i in range(len(TOPICS))
            ]
        )

    functions = FunctionTable(
        [
            LibraryFunction("smiley_count", lambda t: smileys[t], cost=50),
            LibraryFunction("tweet_language", lambda t: language[t], cost=20),
            LibraryFunction("tweet_length", lambda t: lengths[t], cost=20),
            # Sentiment/topic analysis is the expensive text-mining step.
            LibraryFunction(
                "sentiment_score", lambda t, s: sentiment_scores[t][s], cost=140
            ),
            LibraryFunction("topic_score", lambda t, k: topic_scores[t][k], cost=140),
        ]
    )
    return Dataset(
        name="twitter",
        rows=list(range(tweets)),
        functions=functions,
        description=(
            f"{tweets} synthetic tweets (Many-Eyes scale), en/es/pt mix, "
            "smiley counts and per-sentiment/topic scores in [0, 100]"
        ),
        meta={"sentiments": SENTIMENTS, "topics": TOPICS},
    )
