"""Small statistics bundle: correlation with a paired block-bootstrap CI,
autocorrelation and batch means. Bootstrap resampling is done at the
snapshot level in blocks so chain autocorrelation is respected."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError


def correlation(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size < 2:
        raise DegenerateInputError("correlation needs two equal-length samples, n >= 2")
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        raise DegenerateInputError("constant input has no correlation")
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def integrated_autocorr_time(trace):
    """Integrated autocorrelation time via the initial-positive-sequence rule,
    over lags below half the trace length.

    Returned in units of samples; 0.5 means effectively independent.
    """
    x = np.asarray(trace, dtype=float)
    n = x.size
    if n < 8:
        raise DegenerateInputError("trace too short for autocorrelation")
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return 0.5
    tau = 0.5
    for k in range(1, n // 2):
        rho = np.dot(x[:-k], x[k:]) / ((n - k) * var)
        if rho <= 0:
            break
        tau += rho
    return float(tau)


def effective_sample_size(trace):
    tau = integrated_autocorr_time(trace)
    return len(trace) / (2.0 * tau)


def paired_bootstrap_corr_ci(a, b, n_boot=1000, level=0.95, block=1, seed=0):
    """Percentile bootstrap CI for corr(a, b), resampling index blocks so
    paired dependence and serial correlation are both respected."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size < 4:
        raise DegenerateInputError("paired bootstrap needs equal-length input")
    n = a.size
    block = max(1, min(block, n))
    rng = np.random.default_rng(seed)
    n_blocks = int(np.ceil(n / block))
    stats = np.empty(n_boot)
    starts_max = n - block + 1
    for k in range(n_boot):
        starts = rng.integers(0, starts_max, size=n_blocks)
        idx = (starts[:, None] + np.arange(block)[None, :]).reshape(-1)[:n]
        sa, sb = a[idx], b[idx]
        if sa.std() == 0 or sb.std() == 0:
            stats[k] = 0.0
        else:
            stats[k] = np.mean((sa - sa.mean()) * (sb - sb.mean())) / (sa.std() * sb.std())
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return correlation(a, b), (float(lo), float(hi))


def batch_means_ci(samples):
    """Mean and 95% CI half-width (1.96 standard errors) from 16 batch means,
    fewer for a trace under 32 samples (for autocorrelated traces)."""
    x = np.asarray(samples, dtype=float)
    n_batches = 16 if x.size >= 32 else max(2, x.size // 2)
    m = x.size // n_batches
    means = x[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    se = means.std(ddof=1) / np.sqrt(n_batches)
    return float(x.mean()), float(1.96 * se)
