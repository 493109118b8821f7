"""Core vector types, cosine similarity, and the pairwise alignment score.

Embeddings are plain numpy arrays. A frame sequence together with its
language embedding is wrapped in :class:`ClipSequence`, which validates
the invariants every loss in this package relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kinds


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) of a real array, computed as it does."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _dots(a, b) -> np.ndarray:
    """Dot products of a's and b's rows along the last axis, broadcast; each
    row rounds as it does alone. The samplers' and checks' norms and dots."""
    return np.einsum("...i,...i->...", a, b)


def _cosines(embeddings: np.ndarray, language: np.ndarray, norm_l=None):
    """(s, |v|, |l|): cosine similarities of (..., T, d) embeddings to their
    (..., d) language vectors, and the (..., T) and (..., 1) norms, |l| from
    norm_l if given: a matmul, which rounds like a 1-D np.linalg.norm."""
    lang = language[..., :, None]
    if norm_l is None:
        norm_l = np.sqrt(np.matmul(lang.swapaxes(-1, -2), lang))[..., 0]
    norm_v = _norms(embeddings)
    norms = norm_v * norm_l
    if not norms.all():
        raise ValueError("cosine similarity undefined for zero-norm input")
    return np.matmul(embeddings, lang)[..., 0] / norms, norm_v, norm_l


def normalize(v) -> np.ndarray:
    """Project each row of v along its last axis onto the unit sphere: one
    vector or a stack. Each norm is a matmul, which rounds like the 1-D
    np.linalg.norm, so a row's bits do not depend on the stack it is in.

    Raises ValueError on a zero row.
    """
    v = np.asarray(v, dtype=float)
    norms = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    if (norms == 0.0).any():
        raise ValueError("cannot normalize a zero vector")
    return v / norms


def cosine_sim(v, l):
    """Cosine similarity v.l / (|v| |l|), in [-1, 1], along the last axis.

    Inputs broadcast like numpy arrays; a float for two vectors. Equals the
    plain dot product when both inputs are unit-norm. Raises ValueError on
    dimension mismatch or an input of zero or non-finite norm.
    """
    v = np.asarray(v, dtype=float)
    l = np.asarray(l, dtype=float)
    if v.shape[-1:] != l.shape[-1:]:
        raise ValueError(f"dimension mismatch: {v.shape} vs {l.shape}")
    norms = np.sqrt(_dots(v, v)) * np.sqrt(_dots(l, l))
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity undefined for zero-norm input")
    if not np.isfinite(norms).all():
        raise ValueError("cosine similarity undefined for input of non-finite norm")
    sim = _dots(v, l) / norms
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
        ts = kinds.timestamps(self.timestamps)
        emb = np.asarray(self.embeddings, dtype=float)
        lang = np.asarray(self.language, dtype=float)
        if emb.ndim != 2 or emb.shape[0] != len(ts):
            raise ValueError("need exactly one embedding per timestamp")
        kinds.count("embedding dimension", emb.shape[1], 2)
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
        return ClipSequence(self.timestamps, normalize(self.embeddings), normalize(self.language))

    def similarities(self) -> np.ndarray:
        """Per-frame cosine similarity to the language embedding."""
        return _cosines(self.embeddings, self.language)[0]

    def with_embeddings(self, embeddings, language=None) -> "ClipSequence":
        lang = self.language if language is None else language
        return ClipSequence(self.timestamps, embeddings, lang)

    def to_dict(self) -> dict:
        ts, emb, lang = list(self.timestamps), self.embeddings.tolist(), self.language.tolist()
        return {"d": self.d, "timestamps": ts, "embeddings": emb, "language": lang}

    @classmethod
    def from_dict(cls, data: dict) -> "ClipSequence":
        clip = cls(data["timestamps"], data["embeddings"], data["language"])
        if clip.d != kinds.count("d", data["d"], 2):
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
