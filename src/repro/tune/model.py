"""Learned cost model: analytic trace features -> measured milliseconds.

The two-stage tuner's analytic model is cheap but coarse; its measured
profiles are faithful but cost real substrate execution.  This module adds
the middle tier: a **ridge regression** (pure NumPy, closed form — no
external ML dependency) trained on the accumulated
:class:`~repro.perf.KernelProfile` records, mapping the analytic features
every candidate already carries (flops, sector-granular DRAM bytes,
bank-conflict factor, occupancy, index-op count, ...) to the log of its
measured time.  :mod:`repro.tune.search` uses it as a cheap second filter
between analytic ranking and measurement: the model re-scores the analytic
survivors, and the measured budget is spent on the union of both rankings —
a badly-trained model can therefore never evict the analytic leader, only
add its own suspects.

Profiles and fitted models persist in the durable cache tier
(:class:`~repro.cache.ResultCache`) under namespaced string keys
(``profile-record/v1/...``, ``cost-model/v1/...``), so every measured sweep
makes the next search smarter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..cache import ResultCache, stable_digest

__all__ = ["FEATURES", "CostModel", "ProfileStore", "candidate_features", "feature_vector"]

#: the numeric features a model trains on, in canonical order.  They mirror
#: :func:`repro.gpusim.cost_features` plus the tuner's GPU-weighted index-op
#: count; extraction is shared by training and prediction (`feature_vector`),
#: so the two can never drift apart.
FEATURES = (
    "flops",
    "dram_bytes",
    "l2_bytes",
    "smem_bytes",
    "bank_conflict_factor",
    "occupancy",
    "blocks",
    "threads_per_block",
    "smem_per_block",
    "launches",
    "index_ops",
)

#: magnitude features get a log1p squash (they span 9+ orders of magnitude);
#: the bounded ratios stay linear
_LINEAR = {"bank_conflict_factor", "occupancy"}

MIN_SAMPLES = 8


def feature_vector(metrics: Mapping, index_ops: float = 0.0) -> np.ndarray:
    """The canonical feature vector of one candidate/profile record."""
    values = []
    for name in FEATURES:
        raw = float(index_ops if name == "index_ops" else metrics.get(name, 0.0) or 0.0)
        if not np.isfinite(raw):
            raw = 0.0
        values.append(raw if name in _LINEAR else float(np.log1p(max(raw, 0.0))))
    return np.asarray(values, dtype=np.float64)


def candidate_features(candidate) -> np.ndarray:
    """Feature vector of a :class:`~repro.tune.tuner.Candidate`."""
    ops = float(candidate.index_ops) if candidate.has_kernel else 0.0
    return feature_vector(candidate.metrics, index_ops=ops)


@dataclass
class CostModel:
    """Closed-form ridge regression over :data:`FEATURES`.

    The target is ``log10(measured microseconds)`` — times span orders of
    magnitude and ranking (not absolute prediction) is what the search
    needs.  Inputs are standardised feature columns; ``lambda_`` is the
    ridge penalty that keeps the solve well-posed when features are
    collinear (flops and blocks usually are).
    """

    app: str = ""
    device: str = ""
    weights: np.ndarray = field(default_factory=lambda: np.zeros(len(FEATURES)))
    mean: np.ndarray = field(default_factory=lambda: np.zeros(len(FEATURES)))
    std: np.ndarray = field(default_factory=lambda: np.ones(len(FEATURES)))
    intercept: float = 0.0
    samples: int = 0
    lambda_: float = 1e-2

    @classmethod
    def fit(cls, features: Sequence[np.ndarray], seconds: Sequence[float],
            app: str = "", device: str = "", lambda_: float = 1e-2) -> "CostModel":
        """Fit on ``(feature vector, measured seconds)`` pairs."""
        x = np.asarray(list(features), dtype=np.float64)
        y = np.log10(np.maximum(np.asarray(seconds, dtype=np.float64), 1e-12) * 1e6)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("features and targets disagree in length")
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std == 0.0] = 1.0
        xs = (x - mean) / std
        intercept = float(y.mean())
        gram = xs.T @ xs + lambda_ * x.shape[0] * np.eye(x.shape[1])
        weights = np.linalg.solve(gram, xs.T @ (y - intercept))
        return cls(app=app, device=device, weights=weights, mean=mean, std=std,
                   intercept=intercept, samples=int(x.shape[0]), lambda_=lambda_)

    def predict_seconds(self, features: np.ndarray) -> float:
        """Predicted measured time in seconds for one feature vector."""
        scaled = (np.asarray(features, dtype=np.float64) - self.mean) / self.std
        log_us = float(scaled @ self.weights) + self.intercept
        return 10.0 ** np.clip(log_us, -6.0, 12.0) * 1e-6

    def score_candidates(self, candidates) -> list[float]:
        """Predicted seconds for each candidate (order preserved)."""
        return [self.predict_seconds(candidate_features(c)) for c in candidates]

    def payload(self) -> dict:
        return {
            "app": self.app,
            "device": self.device,
            "features": list(FEATURES),
            "weights": [float(w) for w in self.weights],
            "mean": [float(m) for m in self.mean],
            "std": [float(s) for s in self.std],
            "intercept": self.intercept,
            "samples": self.samples,
            "lambda": self.lambda_,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "CostModel | None":
        if list(payload.get("features", [])) != list(FEATURES):
            return None  # trained against a different feature recipe
        return cls(
            app=payload.get("app", ""),
            device=payload.get("device", ""),
            weights=np.asarray(payload["weights"], dtype=np.float64),
            mean=np.asarray(payload["mean"], dtype=np.float64),
            std=np.asarray(payload["std"], dtype=np.float64),
            intercept=float(payload["intercept"]),
            samples=int(payload.get("samples", 0)),
            lambda_=float(payload.get("lambda", 1e-2)),
        )


class ProfileStore:
    """Measured-profile records + fitted models in the durable cache tier.

    Keys are *namespaced raw strings* (not :meth:`ResultCache.key` digests),
    so they survive the source-fingerprint salt: a profile measured before a
    source edit is still valid training data after it — the substrate time of a
    configuration is a fact about the configuration, not about the model
    that predicted it.
    """

    PROFILE_PREFIX = "profile-record/v1"
    MODEL_PREFIX = "cost-model/v1"

    def __init__(self, cache: ResultCache):
        self.cache = cache

    def _profile_key(self, app: str, device: str, config: Mapping) -> str:
        digest = stable_digest({name: config[name] for name in sorted(config)})
        return f"{self.PROFILE_PREFIX}/{app}/{device}/{digest}"

    def record(self, profile, candidate=None, device: str = "") -> bool:
        """Persist one measured profile (with its candidate's features)."""
        if not getattr(profile, "ok", False):
            return False
        metrics = dict(getattr(profile, "metrics", {}) or {})
        index_ops = 0.0
        if candidate is not None:
            metrics = {**candidate.metrics, **metrics}
            index_ops = float(candidate.index_ops) if candidate.has_kernel else 0.0
        key = self._profile_key(profile.app, device, profile.config)
        self.cache.put(key, {
            "app": profile.app,
            "device": device,
            "config": dict(profile.config),
            "measured_seconds": profile.measured_seconds,
            "features": [float(v) for v in feature_vector(metrics, index_ops)],
        })
        return True

    def records(self, app: str, device: str) -> list[dict]:
        prefix = f"{self.PROFILE_PREFIX}/{app}/{device}/"
        return [entry for _, entry in self.cache.items(prefix)]

    def sample_count(self, app: str, device: str) -> int:
        return len(self.records(app, device))

    def train(self, app: str, device: str, lambda_: float = 1e-2) -> CostModel | None:
        """Fit (and persist) a model when enough profiles have accumulated."""
        rows = [r for r in self.records(app, device)
                if r.get("measured_seconds", 0) > 0 and r.get("features")]
        if len(rows) < MIN_SAMPLES:
            return None
        features = [np.asarray(r["features"], dtype=np.float64) for r in rows]
        seconds = [float(r["measured_seconds"]) for r in rows]
        model = CostModel.fit(features, seconds, app=app, device=device, lambda_=lambda_)
        self.cache.put(f"{self.MODEL_PREFIX}/{app}/{device}", model.payload())
        return model

    def model(self, app: str, device: str) -> CostModel | None:
        """The persisted model for ``(app, device)``, if one was trained."""
        entry = self.cache.get(f"{self.MODEL_PREFIX}/{app}/{device}")
        if entry is None:
            return None
        return CostModel.from_payload(entry)

    def save(self):
        return self.cache.save()
