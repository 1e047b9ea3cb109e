"""Tokenization, vocabulary construction, labeled-dataset loading and
synonym-replacement augmentation.

File formats handled here, all written by hand:
  * corpus:          one sentence per line
  * labeled dataset: one ``label<TAB>text`` per line
  * user dictionary: one multi-token term per line
  * synonym table:   one ``word<TAB>synonym`` pair per line

Text becomes tokens once, where these files are read. All four share one
comment rule: a blank line, or one whose first non-blank character is ``#``,
is skipped. The files the tool writes for its own stages (vector files,
``clusters.tsv``, ``model.txt``) have no comment rule, because ``#`` is a token.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataFormatError, EmptyVocabularyError, open_text

MIN_COUNT = 1  # default vocabulary cutoff; SkipGramConfig.min_count holds its check

logger = logging.getLogger(__name__)

# Word characters clump together; every other non-space character stands alone.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class Vocabulary:
    """Bidirectional word <-> contiguous-id map; ids follow the order of ``words``.

    build_vocabulary orders words by descending frequency, ties broken
    lexicographically, so construction is deterministic.
    """

    def __init__(self, words: list[str]):
        self.words = list(words)
        self._index = {w: i for i, w in enumerate(self.words)}
        if len(self._index) != len(self.words):
            raise DataFormatError("duplicate words in vocabulary")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index_of(self, token: str) -> int:
        return self._index[token]


@dataclass
class TokenizedCorpus:
    """Sentences as in-vocabulary token-id sequences (OOV tokens dropped)."""

    sentences: list[list[int]]
    vocabulary: Vocabulary

    def __post_init__(self):
        n = len(self.vocabulary)
        for sent in self.sentences:
            if not sent:
                raise DataFormatError("empty sentence in tokenized corpus")
            if any(t < 0 or t >= n for t in sent):
                raise DataFormatError("token id out of vocabulary range")

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass
class LabeledDataset:
    """Token-id sequences with integer class labels.

    ``oov_marker`` is ``len(vocabulary)``: outside the valid id range, so an
    unguarded row lookup fails loudly instead of aliasing a real word.
    """

    examples: list[tuple[list[int], int]]
    num_classes: int
    oov_marker: int
    label_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.num_classes < 2:
            raise DataFormatError("a labeled dataset needs at least 2 classes")
        for _, label in self.examples:
            if not (0 <= label < self.num_classes):
                raise DataFormatError(f"label {label} outside 0..{self.num_classes - 1}")

    def __len__(self) -> int:
        return len(self.examples)


class UserDictionary:
    """Multi-token terms kept whole during tokenization via greedy longest match.

    A term whose ``_``-joined token tokenize() would split again, such as
    ``covid-19`` (``covid_-_19``), is rejected: the token would not read back
    from the files the tool writes.
    """

    def __init__(self, terms):
        self._terms: set[tuple[str, ...]] = set()
        for term in terms:
            toks = tuple(_TOKEN_RE.findall(term.lower()))
            if not toks:
                raise DataFormatError(f"empty dictionary entry {term!r}")
            joined = "_".join(toks)
            if _TOKEN_RE.findall(joined) != [joined]:
                raise DataFormatError(
                    f"dictionary term {term!r} joins into {joined!r}, which does not read "
                    "back as one token; spell it without punctuation"
                )
            self._terms.add(toks)
        self.max_len = max(map(len, self._terms), default=0)

    def __contains__(self, toks: tuple[str, ...]) -> bool:
        return toks in self._terms


class SynonymTable:
    """Token -> ordered synonym list; a token never maps to itself."""

    def __init__(self, pairs: dict[str, list[str]]):
        self.pairs: dict[str, list[str]] = {}
        for word, syns in pairs.items():
            kept = []
            for s in syns:
                if s == word:
                    raise DataFormatError(f"synonym table maps {word!r} to itself")
                if s not in kept:
                    kept.append(s)
            self.pairs[word] = kept

    def get(self, token: str) -> list[str]:
        return self.pairs.get(token, [])


def tokenize(text: str, user_dict: UserDictionary | None = None) -> list[str]:
    """Split lowercased text on whitespace/punctuation boundaries.

    When ``user_dict`` is given, consecutive base tokens matching a dictionary
    term are merged into a single ``_``-joined token, longest match first.
    """
    base = _TOKEN_RE.findall(text.lower())
    if user_dict is None or user_dict.max_len < 2 or not base:
        return base
    out: list[str] = []
    i = 0
    n = len(base)
    while i < n:
        merged = None
        limit = min(user_dict.max_len, n - i)
        for length in range(limit, 1, -1):
            cand = tuple(base[i : i + length])
            if cand in user_dict:
                merged = cand
                break
        if merged is not None:
            out.append("_".join(merged))
            i += len(merged)
        else:
            out.append(base[i])
            i += 1
    return out


def build_vocabulary(sentences, min_count: int = MIN_COUNT) -> Vocabulary:
    """Count tokens over sentences and keep those with count >= min_count."""
    counts = Counter()
    for sent in sentences:
        counts.update(sent)
    kept = {w: c for w, c in counts.items() if c >= min_count}
    if not kept:
        raise EmptyVocabularyError(
            f"no token reached min_count={min_count} ({len(counts)} distinct tokens seen)"
        )
    words = sorted(kept, key=lambda w: (-kept[w], w))
    return Vocabulary(words)


def encode_corpus(sentences, vocabulary: Vocabulary) -> TokenizedCorpus:
    """Map token strings to ids, dropping OOV tokens and empty sentences."""
    encoded = []
    for sent in sentences:
        ids = [vocabulary.index_of(t) for t in sent if t in vocabulary]
        if ids:
            encoded.append(ids)
    if not encoded:
        raise DataFormatError("no sentence survived vocabulary encoding")
    return TokenizedCorpus(encoded, vocabulary)


def encode_dataset(examples, vocabulary: Vocabulary) -> LabeledDataset:
    """Encode (label, tokens) pairs against a vocabulary.

    Labels are mapped to contiguous integers in lexicographic order of their
    string form. Unknown tokens become the OOV marker; examples whose tokens
    are all OOV are kept. Empty examples are skipped with a warning count.
    Text in place of a token list raises TypeError.
    """
    examples = list(examples)
    label_names = sorted({str(label) for label, _ in examples})
    if len(label_names) < 2:
        raise DataFormatError(f"need at least 2 distinct labels, got {label_names}")
    label_ids = {name: i for i, name in enumerate(label_names)}
    oov = len(vocabulary)
    encoded = []
    skipped = 0
    for label, tokens in examples:
        if isinstance(tokens, str):
            raise TypeError(f"expected a list of tokens, got the text {tokens!r}")
        if not tokens:
            skipped += 1
            continue
        ids = [vocabulary.index_of(t) if t in vocabulary else oov for t in tokens]
        encoded.append((ids, label_ids[str(label)]))
    if skipped:
        logger.warning("skipped %d empty example(s) while encoding", skipped)
    return LabeledDataset(
        examples=encoded,
        num_classes=len(label_names),
        oov_marker=oov,
        label_names=label_names,
    )


def augment_with_synonyms(dataset, table: SynonymTable, max_new_per_example: int):
    """Grow (label, tokens) examples by single-position synonym substitution.

    For each example, positions are scanned left to right; each synonym of a
    matched token yields one new example with only that position replaced,
    until ``max_new_per_example`` new examples exist. Originals stay, labels
    are copied unchanged.
    """
    if max_new_per_example < 0:
        raise ValueError("max_new_per_example must be >= 0")
    out = []
    for label, tokens in dataset:
        out.append((label, list(tokens)))
        budget = max_new_per_example
        for pos, token in enumerate(tokens):
            if budget == 0:
                break
            for syn in table.get(token):
                if budget == 0:
                    break
                variant = list(tokens)
                variant[pos] = syn
                out.append((label, variant))
                budget -= 1
    return out


def _content_lines(fh):
    """(line number, line without its newline) for each line of ``fh`` that is
    not blank and whose first non-blank character is not ``#``."""
    for lineno, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        first = line.lstrip()[:1]
        if first and first != "#":
            yield lineno, line


def load_labeled_file(path, user_dict: UserDictionary | None = None) -> list[tuple[str, list[str]]]:
    """Read ``label<TAB>text`` lines as (label, tokens) pairs."""
    examples = []
    with open_text(path) as fh:
        for lineno, line in _content_lines(fh):
            label, tab, text = line.partition("\t")
            if not tab:
                raise DataFormatError(f"{path}:{lineno}: expected label<TAB>text")
            examples.append((label, tokenize(text, user_dict)))
    if not examples:
        raise DataFormatError(f"{path}: no examples found")
    return examples


def load_dictionary_file(path) -> UserDictionary:
    """Read one dictionary term per line."""
    with open_text(path) as fh:
        return UserDictionary([line.strip() for _, line in _content_lines(fh)])


def load_synonym_file(path) -> SynonymTable:
    """Read ``word<TAB>synonym`` pairs, one per line; each word is one token."""
    pairs: dict[str, list[str]] = {}
    with open_text(path) as fh:
        for lineno, line in _content_lines(fh):
            parts = line.split("\t")
            if len(parts) != 2 or parts[0].split() != [parts[0]] or not parts[1]:
                raise DataFormatError(
                    f"{path}:{lineno}: expected word<TAB>synonym, with the word one token"
                    " as tokenize spells it (chest_pain)"
                )
            pairs.setdefault(parts[0], []).append(parts[1])
    return SynonymTable(pairs)


def load_sentence_file(path, user_dict: UserDictionary | None = None) -> list[list[str]]:
    """Tokenize a plain-text corpus, one sentence per line."""
    with open_text(path) as fh:
        sentences = [tokenize(line, user_dict) for _, line in _content_lines(fh)]
    if not sentences:
        raise DataFormatError(f"{path}: no sentences found")
    return sentences
