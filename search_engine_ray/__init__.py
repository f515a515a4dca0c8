"""search_engine_ray — a Ray-Data-native inverted-index builder + BM25 query engine.

A brand-new engine with the query/data-processing capabilities of the
reference TREC search engine (sebastian-hofstaetter/search-engine), re-expressed
as idiomatic Ray Data pipelines over zero-copy Arrow batches:

- ``corpus``  — deterministic Common-Crawl-style `pages` corpus + HTML→text
  extraction (byte-identical per url between the scalar oracle and the
  vectorized engine kernel) + TREC topic parsing.
- ``text``    — tokenizer / casefold / stopword / Porter-stemmer semantics
  transcribed from the reference (see module docstrings for file:line cites).
- ``oracle``  — deliberately-slow, obviously-correct pure-Python reference
  implementation used as the conformance oracle for every engine stage.
- ``engine``  — the Ray Data pipelines: deterministic fragment reader with
  global docIDs, actor-pool segment builder (partial posting aggregation),
  term-sharded groupby merge with delta+VByte compression and block-max
  metadata, resumable per-fragment manifests, and the query side (TAAT
  scorers + MaxScore DAAT, rank-identical to the oracle).
- ``dataops`` — large-scale training-data operators (dedup exact /
  MinHash-LSH / SimHash / n-gram Jaccard, embedding similarity search,
  text quality & language heuristics, multimodal stubs).

No module here calls ``ray.init()`` — sessions are owned by the driver,
``bench.py`` and the test fixture.
"""

__version__ = "0.1.0"
