"""Seeded benchmark inputs: an HTML page corpus, a TREC topics file and
upsert files.

Everything here is a pure function of its arguments, so one seed always
gives the same bytes.  The generator is the benchmark's own (not the
package's ``corpus.pages``), so a change to the engine cannot change the
inputs it is measured on.  The engine only ever sees the files written
here.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PAGES_SCHEMA = pa.schema([("url", pa.string()), ("html", pa.binary())])

VOCAB_SIZE = 12_000
ZIPF_S = 1.07
# The engine's stopwords: sprinkled into pages and topics so that the
# stopword filter has work to do.
_STOPWORDS = ("a", "and", "the", "of", "to", "in", "is", "for", "with", "that", "this")
_CONS = np.array(list("bcdfghjklmnprstvwz"))
_VOWS = np.array(list("aeiou"))
_SUFFIXES = np.array(["", "", "", "", "s", "es", "ed", "ing", "ly", "ness", "ation", "ize", "ful"])


def make_vocab(seed: int, size: int = VOCAB_SIZE) -> np.ndarray:
    """``size`` distinct pseudo-words (2-4 syllables plus a suffix)."""
    rng = np.random.default_rng([seed, 1])
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n = size - len(words)
        syl = rng.integers(2, 5, size=n)
        cons = rng.choice(_CONS, size=(n, 4))
        vows = rng.choice(_VOWS, size=(n, 4))
        suf = rng.choice(_SUFFIXES, size=n)
        for i in range(n):
            w = "".join(cons[i, j] + vows[i, j] for j in range(syl[i])) + suf[i]
            if w not in seen:
                seen.add(w)
                words.append(w)
    return np.asarray(words, dtype=object)


def zipf_probs(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_S
    return p / p.sum()


def page_texts(rng: np.random.Generator, vocab: np.ndarray, n_docs: int) -> list[str]:
    """``n_docs`` page texts: 50-700 Zipf-sampled tokens each, about 12%
    stopwords and 4% capitalised, in paragraphs of about 12 tokens."""
    lens = rng.integers(50, 700, size=n_docs)
    total = int(lens.sum())
    toks = vocab[rng.choice(len(vocab), size=total, p=zipf_probs(len(vocab)))]
    style = rng.random(total)
    stops = np.asarray(_STOPWORDS, dtype=object)[rng.integers(0, len(_STOPWORDS), size=total)]
    toks = np.where(style < 0.12, stops, toks)
    caps = (style >= 0.12) & (style < 0.16)
    toks[caps] = [t.capitalize() for t in toks[caps]]
    seps = np.where(rng.random(total) < 1 / 12, "\n", " ").astype(object)
    ends = np.cumsum(lens)
    seps[ends - 1] = ""
    joined = (toks + seps).tolist()
    out, lo = [], 0
    for hi in ends.tolist():
        out.append("".join(joined[lo:hi]))
        lo = hi
    return out


def page_html(text: str, title: str) -> bytes:
    """The engine's page template: a head that never holds document text,
    then one ``<p ...>`` element per paragraph inside ``<body>``."""
    body = '</p><p class="c">'.join(text.split("\n"))
    return f'<html><head><title>{title}</title></head><body><p class="c">{body}</p></body></html>'.encode()


def pages_table(names: list[str], texts: list[str]) -> pa.Table:
    return pa.table(
        {
            "url": pa.array(names, pa.string()),
            "html": pa.array([page_html(t, n) for n, t in zip(names, texts)], pa.binary()),
        },
        schema=PAGES_SCHEMA,
    )


def corpus_names(seed: int, n_docs: int) -> list[str]:
    """Sorted page urls: file order is docID order in the engine."""
    return sorted(f"https://site{i % 97}.example/s{seed}/p{i:06d}" for i in range(n_docs))


def write_corpus(out_dir: str, seed: int, n_docs: int, n_files: int, row_group: int) -> list[str]:
    """Write ``n_docs`` pages as ``n_files`` Parquet files; returns the names."""
    rng = np.random.default_rng([seed, 2])
    vocab = make_vocab(seed)
    names = corpus_names(seed, n_docs)
    table = pages_table(names, page_texts(rng, vocab, n_docs))
    os.makedirs(out_dir, exist_ok=True)
    per = -(-n_docs // n_files)
    for f in range(n_files):
        pq.write_table(
            table.slice(f * per, per),
            os.path.join(out_dir, f"pages-{f:05d}.parquet"),
            row_group_size=row_group,
        )
    return names


def write_topics(path: str, seed: int, n_topics: int) -> None:
    """A TREC topics file: titles of 1-5 vocabulary words (every fourth
    title repeats a word, qtf=2; every sixth carries a stopword).  Word
    ranks follow a flatter Zipf than the pages, so tail terms show up,
    and are drawn as quantiles of a low-discrepancy sequence whose start
    is the seed: every seed gets the same spread of head, middle and tail
    terms, which keeps the query cost of a topic set steady across seeds."""
    vocab = make_vocab(seed)
    cdf = np.cumsum(1.0 / np.arange(1, len(vocab) + 1, dtype=np.float64) ** 0.8)
    lens = 1 + np.arange(n_topics) % 5
    u = (np.random.default_rng([seed, 3]).random() + np.arange(lens.sum()) * 0.6180339887498949) % 1.0
    words = vocab[np.minimum(np.searchsorted(cdf / cdf[-1], u), len(vocab) - 1)]
    with open(path, "w", encoding="utf-8") as fh:
        lo = 0
        for t, n in enumerate(lens.tolist()):
            title = list(words[lo:lo + n])
            lo += n
            if t % 4 == 0:
                title.append(title[0])
            if t % 6 == 0:
                title.insert(0, "the")
            fh.write(
                f"<top>\n<num> Number: {401 + t}\n<title> {' '.join(title)}\n"
                "<desc> Description:\n\n<narr> Narrative:\n\n</top>\n"
            )


def update_marker(seed: int, cycle: int, j: int) -> str:
    """A token that occurs only in the new text of replaced page ``j`` of
    update ``cycle``: querying it must find exactly that page."""
    return f"mk{seed}c{cycle}r{j}"


def write_update(
    path: str, seed: int, cycle: int, replace: list[str], n_new: int
) -> None:
    """One upsert file: new versions of the ``replace`` pages (each
    carrying its marker token) followed by ``n_new`` brand-new pages."""
    rng = np.random.default_rng([seed, 4, cycle])
    vocab = make_vocab(seed)
    texts = page_texts(rng, vocab, len(replace) + n_new)
    for j in range(len(replace)):
        texts[j] = f"{update_marker(seed, cycle, j)} {texts[j]}"
    new = [f"https://new.example/s{seed}/c{cycle}/p{j:04d}" for j in range(n_new)]
    pq.write_table(pages_table(list(replace) + new, texts), path)
