"""Core vector types, cosine similarity, and the pairwise alignment score.

Embeddings are plain numpy arrays. A frame sequence together with its
language embedding is wrapped in :class:`ClipSequence`, which validates
the invariants every loss in this package relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def _timestamps(timestamps) -> tuple:
    """Checked timestamps as a tuple of ints: at least two finite integers
    (an integral float such as 2.0 counts), non-negative, strictly increasing."""
    raw = tuple(timestamps)
    try:
        ts = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
        ts = None
    if ts != raw:  # a fractional value compares unequal to its truncation
        raise ValueError("timestamps must be finite integers")
    if len(ts) < 2:
        raise ValueError("need at least two timestamps")
    if any(t < 0 for t in ts):
        raise ValueError("timestamps must be non-negative")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("timestamps must be strictly increasing")
    return ts


def normalize(v) -> np.ndarray:
    """Project a raw vector onto the unit sphere.

    Raises ValueError on a zero vector.
    """
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


def cosine_sim(v, l):
    """Cosine similarity v.l / (|v| |l|), in [-1, 1], along the last axis.

    Inputs broadcast like numpy arrays; a float for two vectors. Equals the
    plain dot product when both inputs are unit-norm. Raises on dimension
    mismatch or a zero-norm input.
    """
    v = np.asarray(v, dtype=float)
    l = np.asarray(l, dtype=float)
    if v.shape[-1:] != l.shape[-1:]:
        raise ValueError(f"dimension mismatch: {v.shape} vs {l.shape}")
    norms = np.linalg.norm(v, axis=-1) * np.linalg.norm(l, axis=-1)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity undefined for zero-norm input")
    sim = np.sum(v * l, axis=-1) / norms
    return float(sim) if sim.ndim == 0 else sim


def alignment_score(v_i, v_j, l):
    """Semantic alignment score of a frame pair w.r.t. a language vector.

    Negative absolute difference of the two frames' cosine similarities
    to `l`; always in [-2, 0] and symmetric in the frame arguments.
    Broadcasts along the last axis like :func:`cosine_sim`.
    """
    return -np.abs(cosine_sim(v_i, l) - cosine_sim(v_j, l))


@dataclass(frozen=True)
class ClipSequence:
    """Ordered frame embeddings with integer timestamps and a language embedding.

    Invariants checked at construction: timestamps strictly increasing and
    non-negative, one embedding per timestamp, T >= 2, all embeddings and
    the language vector share one dimension d >= 2.
    """

    timestamps: tuple = field()
    embeddings: np.ndarray = field()
    language: np.ndarray = field()

    def __post_init__(self):
        ts = _timestamps(self.timestamps)
        emb = np.asarray(self.embeddings, dtype=float)
        lang = np.asarray(self.language, dtype=float)
        if emb.ndim != 2 or emb.shape[0] != len(ts):
            raise ValueError("need exactly one embedding per timestamp")
        if emb.shape[1] < 2:
            raise ValueError("embedding dimension must be at least 2")
        if lang.shape != (emb.shape[1],):
            raise ValueError("language embedding dimension mismatch")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "language", lang)

    @property
    def T(self) -> int:
        return len(self.timestamps)

    @property
    def d(self) -> int:
        return self.embeddings.shape[1]

    def normalized(self) -> "ClipSequence":
        """Copy of the clip with every embedding projected to the unit sphere."""
        emb = np.stack([normalize(v) for v in self.embeddings])
        return ClipSequence(self.timestamps, emb, normalize(self.language))

    def similarities(self) -> np.ndarray:
        """Per-frame cosine similarity to the language embedding."""
        norms = np.linalg.norm(self.embeddings, axis=1) * np.linalg.norm(self.language)
        if np.any(norms == 0.0):
            raise ValueError("cosine similarity undefined for zero-norm input")
        return (self.embeddings @ self.language) / norms

    def with_embeddings(self, embeddings, language=None) -> "ClipSequence":
        lang = self.language if language is None else language
        return ClipSequence(self.timestamps, embeddings, lang)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "timestamps": list(self.timestamps),
            "embeddings": [list(map(float, v)) for v in self.embeddings],
            "language": [float(x) for x in self.language],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClipSequence":
        clip = cls(data["timestamps"], data["embeddings"], data["language"])
        if clip.d != int(data["d"]):
            raise ValueError("declared dimension does not match embeddings")
        if not (np.isfinite(clip.embeddings).all() and np.isfinite(clip.language).all()):
            raise ValueError("embeddings and language must be finite")
        return clip

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, path) -> "ClipSequence":
        with open(path) as f:
            return cls.from_dict(json.load(f))
