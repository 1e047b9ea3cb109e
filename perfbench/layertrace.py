"""Layer tracing from outside the program: wrap each module's public calls.

A wrapper is installed at the name its caller resolves. ``pipeline`` imports
``train_classifier``, ``evaluate`` and ``save_model`` by name and ``synthetic``
imports the first two, so those are patched in the importing module;
``clustering`` and ``expansion`` import the vector-file functions by name, so
those are patched there too. ``loss_and_grads`` and ``apply_grads`` are
patched on the classifier classes. Per-pair functions such as
``softmax_pair_gradients`` are never wrapped (tens of thousands of calls per
run); pair counts are computed from the arguments of ``train_skipgram`` after
the run instead.

Spans are ``[name, start, end, parent]`` rows kept in memory. A span's self
time is its duration minus its direct children's; summing self times by layer
(the part of the name before the dot) plus the root's self time gives back the
root's duration, so layer times and ``pipeline.self_s`` add up to ``run_s``.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

from semexpand import clustering, corpus, embedding, expansion, pipeline, synthetic
from semexpand.nn import CnnClassifier, LstmClassifier

ROOT_SPAN = "pipeline.run"
LAYERS = ("corpus", "embedding", "clustering", "expansion", "nn", "synthetic")

# (owner, attribute, span name): every call site the pipeline and the
# planted-topic benchmark go through, at the name the caller looks up.
TRACED_CALLS = [
    (corpus, "tokenize", "corpus.call"),
    (corpus, "load_labeled_file", "corpus.call"),
    (corpus, "load_sentence_file", "corpus.call"),
    (corpus, "load_dictionary_file", "corpus.call"),
    (corpus, "build_vocabulary", "corpus.call"),
    (corpus, "encode_corpus", "corpus.call"),
    (corpus, "encode_dataset", "corpus.call"),
    (embedding, "train_skipgram", "embedding.train"),
    (embedding, "save_embeddings", "embedding.io"),
    (embedding, "load_embeddings", "embedding.io"),
    (embedding, "write_vector_file", "embedding.io"),
    (embedding, "read_vector_file", "embedding.io"),
    (clustering, "write_vector_file", "embedding.io"),
    (clustering, "read_vector_file", "embedding.io"),
    (expansion, "write_vector_file", "embedding.io"),
    (clustering, "build_dendrogram", "clustering.dendrogram"),
    (clustering, "cut_dendrogram", "clustering.cut"),
    (clustering, "assignment_from_cut", "clustering.cut"),
    (clustering, "save_assignment", "clustering.io"),
    (expansion, "expand", "expansion.expand"),
    (expansion, "embed_dataset", "expansion.embed"),
    (pipeline, "train_classifier", "nn.train"),
    (synthetic, "train_classifier", "nn.train"),
    (LstmClassifier, "loss_and_grads", "nn.step"),
    (CnnClassifier, "loss_and_grads", "nn.step"),
    (LstmClassifier, "apply_grads", "nn.update"),
    (CnnClassifier, "apply_grads", "nn.update"),
    (pipeline, "evaluate", "nn.eval"),
    (synthetic, "evaluate", "nn.eval"),
    (pipeline, "save_model", "nn.io"),
    (synthetic, "make_benchmark", "synthetic.generate"),
]


class Patches:
    """Replace attributes and put back exactly what was there, own or inherited."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self):
        while self._saved:
            owner, attr, own, value = self._saved.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def capture_dendrograms(patches: Patches, found: list) -> None:
    """Keep every dendrogram built, so the output check can count its merges."""

    def make(original):
        def build(*args, **kwargs):
            result = original(*args, **kwargs)
            found.append(result)
            return result

        return build

    patches.wrap(clustering, "build_dendrogram", make)


class Tracer:
    """Spans and counts of one traced experiment."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.peak_alloc = 0
        self._stack: list = []
        self._skipgram_calls: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def install(self, patches: Patches) -> None:
        for owner, attr, name in TRACED_CALLS:
            patches.wrap(owner, attr, functools.partial(self._wrapper, name, attr))

    def _wrapper(self, name, attr, original):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                if attr == "build_dendrogram":
                    tracemalloc.start()
                    try:
                        result = original(*args, **kwargs)
                        self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
                else:
                    result = original(*args, **kwargs)
            finally:
                self.close(index)
            self._count(attr, args, kwargs, result)
            return result

        return traced

    def _count(self, attr, args, kwargs, result) -> None:
        # Cheap bookkeeping only; anything costlier is deferred to finish().
        c = self.counts
        if attr == "tokenize":
            c["corpus.tokens"] += len(result)
        elif attr == "train_skipgram":
            corpus_arg = args[0] if args else kwargs["corpus"]
            config = args[1] if len(args) > 1 else kwargs["config"]
            self._skipgram_calls.append((corpus_arg, config))
        elif attr == "build_dendrogram":
            c["clustering.leaves"] += result.leaf_count
        elif attr == "cut_dendrogram":
            c["clustering.cuts"] += 1
        elif attr == "embed_dataset":
            c["expansion.examples"] += len(args[0].examples)
        elif attr == "loss_and_grads":
            c["nn.steps"] += 1
        elif attr == "train_classifier":
            config = args[4] if len(args) > 4 else kwargs["config"]
            c["nn.train_examples"] += config.epochs * len(args[1])

    def finish(self, pair_counter) -> None:
        for corpus_arg, config in self._skipgram_calls:
            self.counts["embedding.pairs"] += config.epochs * pair_counter(
                corpus_arg.sentences, config.window
            )
        self._skipgram_calls.clear()

    def inclusive(self, name: str) -> float:
        """Time in spans called ``name``, not counting such spans nested in each other."""
        total = 0.0
        for span in self.spans:
            if span[0] == name and not self._inside(span, name):
                total += span[2] - span[1]
        return total

    def _inside(self, span, name) -> bool:
        parent = span[3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> dict:
        """Self time summed by layer; the root span is the ``pipeline`` layer."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        by_layer: dict = defaultdict(float)
        for span, children in zip(self.spans, child_time):
            by_layer[span[0].split(".")[0]] += (span[2] - span[1]) - children
        return dict(by_layer)
