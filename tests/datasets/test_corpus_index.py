"""Differential properties of the corpus-QA retrieval index.

The serving layer treats :class:`~repro.datasets.corpus.CorpusIndex` as a
content-addressed artifact: rankings must be a pure function of the document
list (build twice, or save/load, and every query ranks identically), and the
fingerprint must be a content hash (any single-document mutation changes it;
the saved file hashes to the live index's fingerprint).  These are the
invariants the deploy layer's ``index_fingerprint`` verification and the
response cache's fingerprint-keyed entries both lean on.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.corpus import CorpusDocument, CorpusIndex, corpus_index_fingerprint
from repro.errors import ModelConfigError

TOPICS = (
    "revenue", "temperature", "latency", "population", "rainfall", "enrollment",
    "throughput", "inventory", "emissions", "attendance", "region", "quarter",
    "department", "species", "platform", "cohort", "peak", "median", "growth",
)


def build_documents(count: int = 30, seed: int = 13) -> list[CorpusDocument]:
    rng = random.Random(seed)
    documents = []
    for i in range(count):
        words = rng.sample(TOPICS, 4)
        documents.append(
            CorpusDocument(
                doc_id=f"doc-{i:03d}",
                title=f"{words[0]} by {words[1]}",
                chart=f"bar chart of {words[0]} per {words[1]} sorted by {words[2]}",
                schema=f"| t : t.{words[1]} , t.{words[0]}",
                table=f"{words[1]} | {words[0]} | {words[3]}",
            )
        )
    return documents


def seeded_probes(documents: list[CorpusDocument], count: int = 200, seed: int = 29) -> list[tuple[str, str]]:
    """``count`` (query, source doc_id) probes: shuffled token subsets of document text plus noise words."""
    rng = random.Random(seed)
    probes = []
    for _ in range(count):
        document = documents[rng.randrange(len(documents))]
        words = [w for w in document.text().split() if rng.random() > 0.4]
        words += rng.sample(TOPICS, rng.randrange(3))
        rng.shuffle(words)
        probes.append((" ".join(words) or document.title, document.doc_id))
    return probes


def seeded_queries(documents: list[CorpusDocument]) -> list[str]:
    return [query for query, _ in seeded_probes(documents)]


def ranking_table(index: CorpusIndex, queries: list[str], top_k: int = 5) -> list[list[tuple]]:
    return [
        [(document.doc_id, score) for document, score in index.search(query, top_k=top_k)]
        for query in queries
    ]


class TestDeterminism:
    def test_two_builds_rank_200_queries_identically(self):
        documents = build_documents()
        queries = seeded_queries(documents)
        first = CorpusIndex(documents)
        second = CorpusIndex(list(documents))
        assert ranking_table(first, queries) == ranking_table(second, queries)
        assert first.fingerprint() == second.fingerprint()

    def test_save_load_ranks_200_queries_identically(self, tmp_path):
        documents = build_documents()
        queries = seeded_queries(documents)
        index = CorpusIndex(documents)
        path = index.save(tmp_path / "index.json")
        reloaded = CorpusIndex.load(path)
        assert ranking_table(index, queries) == ranking_table(reloaded, queries)
        assert reloaded.fingerprint() == index.fingerprint()
        assert reloaded.documents == index.documents


class TestRetrievalQuality:
    def test_top3_hit_rate_over_seeded_paraphrases(self):
        # A paraphrase keeps ~60% of its source document's tokens, shuffled,
        # plus up to two off-topic words; the source must still rank top-3.
        documents = build_documents()
        index = CorpusIndex(documents)
        probes = seeded_probes(documents)
        hits = sum(
            any(document.doc_id == source_id for document, _ in index.search(query, top_k=3))
            for query, source_id in probes
        )
        assert hits / len(probes) >= 0.9


class TestContentHash:
    def test_saved_file_hashes_to_the_live_fingerprint(self, tmp_path):
        index = CorpusIndex(build_documents())
        path = index.save(tmp_path / "index.json")
        assert corpus_index_fingerprint(path) == index.fingerprint()

    def test_any_single_document_mutation_changes_the_fingerprint(self):
        documents = build_documents(count=8)
        baseline = CorpusIndex(documents).fingerprint()
        for position in range(len(documents)):
            mutated = list(documents)
            original = mutated[position]
            mutated[position] = CorpusDocument(
                doc_id=original.doc_id,
                title=original.title + " tampered",
                chart=original.chart,
                schema=original.schema,
                table=original.table,
            )
            assert CorpusIndex(mutated).fingerprint() != baseline
        # order is content too: a reordered corpus is a different artifact
        assert CorpusIndex(list(reversed(documents))).fingerprint() != baseline

    def test_tampered_file_changes_the_on_disk_hash(self, tmp_path):
        index = CorpusIndex(build_documents(count=5))
        path = index.save(tmp_path / "index.json")
        recorded = corpus_index_fingerprint(path)
        tampered = path.read_text(encoding="utf-8").replace("revenue", "revenues", 1)
        path.write_text(tampered, encoding="utf-8")
        assert corpus_index_fingerprint(path) != recorded


class TestStrictness:
    def test_duplicate_doc_ids_are_rejected(self):
        document = CorpusDocument(doc_id="dup", title="a title")
        with pytest.raises(ModelConfigError, match="duplicate doc_id"):
            CorpusIndex([document, document])

    def test_search_requires_a_positive_top_k(self):
        index = CorpusIndex(build_documents(count=3))
        with pytest.raises(ModelConfigError, match="top_k"):
            index.search("anything", top_k=0)

    def test_unknown_doc_id_raises(self):
        index = CorpusIndex(build_documents(count=3))
        with pytest.raises(ModelConfigError, match="unknown doc_id"):
            index.get("doc-999")

    def test_loading_a_non_index_file_raises(self, tmp_path):
        path = tmp_path / "not-an-index.json"
        path.write_text('{"format": "something-else", "documents": []}', encoding="utf-8")
        with pytest.raises(ModelConfigError):
            CorpusIndex.load(path)
        with pytest.raises(ModelConfigError, match="no corpus index"):
            CorpusIndex.load(tmp_path / "missing.json")
