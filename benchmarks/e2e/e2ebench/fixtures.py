"""The two fixtures every workload is built on, and the seeded request factory.

Fixtures are part of the system under test and never depend on ``--seed``:
the same models, vocabulary and corpus are built on every run, so run time
depends on the seed only through the generated inputs.  Weights are seeded
and untrained — decode time depends on tensor shapes, not values — and the
mean output length is reported so a shift in it is visible.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import time
from pathlib import Path

import numpy as np

from repro.core.config import DataVisT5Config
from repro.core.model import DataVisT5
from repro.datasets import build_database_pool, generate_nvbench
from repro.datasets.corpus import CorpusDocument, CorpusIndex
from repro.deploy.registry import ModelRegistry
from repro.nn.transformer import T5Model, TransformerConfig
from repro.serving.protocol import Request
from repro.vql.ast import Condition

FIXTURE_SEED = 0
TASKS = ("text_to_vis", "vis_to_text", "fevisqa", "corpus_qa")
#: Tasks sent through ``stream()``: half the mix, so first-chunk time and chunk
#: gaps rest on half of a phase's requests instead of a quarter.
STREAMED_TASKS = frozenset({"vis_to_text", "corpus_qa"})
DEPLOYMENT = "viz"

_CHART_WORDS = ("bar", "line", "scatter", "pie", "area", "heatmap", "box", "radar")
_METRIC_WORDS = ("revenue", "latency", "rainfall", "enrollment", "inventory")


def build_decode_model() -> T5Model:
    """The decode model: matmul-weighted, as in ``BENCH_continuous``.

    ``eos_id=-1`` matches no token, so every row decodes exactly its budget:
    budgets, not the luck of random weights, fix the token counts.
    """
    config = TransformerConfig(
        vocab_size=96,
        d_model=256,
        num_heads=8,
        d_ff=512,
        num_encoder_layers=2,
        num_decoder_layers=2,
        eos_id=-1,
        seed=FIXTURE_SEED,
    )
    return T5Model(config).eval()


def decode_rows(seed: int, burst: int, count: int, vocab_size: int = 96) -> list[np.ndarray]:
    """The ``count`` source rows of burst number ``burst`` (-1 is the warm-up): lengths uniform 12-48."""
    rng = np.random.default_rng([seed, burst + 1])
    return [
        rng.integers(4, vocab_size, size=int(rng.integers(12, 49))).astype(np.int64) for _ in range(count)
    ]


class ServingFixture:
    """Pool, serving model, corpus index and a registry holding the checkpoint.

    Everything the serving tiers load is written under ``workdir`` — inside
    the benchmark's own ``out/`` directory — so a shard process can build its
    pipeline from the registry file exactly as a deployment would.
    """

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.pool = build_database_pool(num_databases=6, seed=FIXTURE_SEED)
        self.examples = generate_nvbench(self.pool, examples_per_database=15, seed=FIXTURE_SEED).examples
        config = DataVisT5Config.from_preset(
            "base", max_input_length=96, max_decode_length=32, seed=FIXTURE_SEED
        )
        texts = [example.question for example in self.examples]
        texts += [example.query_text for example in self.examples]
        self.model = DataVisT5.from_corpus(texts, config=config)
        self.documents = [
            CorpusDocument(
                doc_id=f"doc-{number:03d}",
                title=f"{_METRIC_WORDS[number % 5]} report {number} {_CHART_WORDS[number % 8]}",
                chart=self.examples[number % len(self.examples)].query_text,
                table=f"{_METRIC_WORDS[number % 5]} | region",
            )
            for number in range(40)
        ]
        self.index = CorpusIndex(self.documents)
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.registry_path = self.workdir / "registry.json"
        self.registry = ModelRegistry(self.registry_path)
        manifest = self.registry.register_checkpoint(
            DEPLOYMENT, self.model, self.workdir / "ckpt", corpus_index=self.index
        )
        self.ref = manifest.id
        started = time.perf_counter()
        self.pipeline = self.registry.build_pipeline(self.ref)
        self.build_pipeline_s = time.perf_counter() - started

    def twin(self):
        """A fresh in-process pipeline over the registered checkpoint.

        The stand-in for what runs inside a shard, and — never having served
        anything — the oracle every serving response is compared with.
        """
        return self.registry.build_pipeline(self.ref)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class RequestFactory:
    """Request number ``i`` for ``seed``, as a pure function of both.

    Numbers are unique requests: no two share a cache key on any tier.  The
    task mix is exactly 25 % each — every block of four numbers is a seeded
    permutation of the four tasks — so a short phase cannot draw a lopsided
    mix.  The salt that makes a request unique sits at the front of the
    question, inside the 96 tokens the model reads.
    """

    def __init__(self, fixture: ServingFixture, seed: int):
        self.fixture = fixture
        self.seed = seed

    def task(self, number: int) -> str:
        block = list(TASKS)
        random.Random(f"mix-{self.seed}-{number // 4}").shuffle(block)
        return block[number % 4]

    def request(self, number: int) -> Request:
        fixture = self.fixture
        rng = random.Random(f"request-{self.seed}-{number}")
        example = rng.choice(fixture.examples)
        schema = fixture.pool.get(example.db_id).schema
        task = self.task(number)
        if task == "text_to_vis":
            return Request(task=task, question=f"variant {number} : {example.question}", schema=schema)
        if task == "vis_to_text":
            # A vis_to_text request has no free text, so the chart itself is
            # made unique: one extra filter that no row of the table fails.
            query = example.query
            extra = Condition(left=query.select[0].column, operator="!=", value=1_000_000 + number)
            chart = dataclasses.replace(query, where=query.where + (extra,))
            return Request(task=task, chart=chart, schema=schema)
        if task == "fevisqa":
            return Request(
                task=task,
                question=f"check {number} : is the largest value in this chart above average ?",
                chart=example.query,
                schema=schema,
            )
        document = rng.choice(fixture.documents)
        return Request(task=task, question=f"case {number} : what does the {document.title} chart show ?")
