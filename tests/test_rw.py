import hashlib
import math

import numpy as np
import pytest

from zgff import mcmc
from zgff.errors import DegenerateInputError, InfeasibleError, StructureError
from zgff.fs import FSModel, fs_quantile
from zgff.rw import (IncrementLaw, TiltedBridgeSpec, _stream_seed,
                     basic_increment_law, enumerate_bridge, fs_bridge_spec,
                     fs_comparison, laplace_increment_law, sample_tilted_bridge,
                     transfer_matrix_exact)
from zgff.surface import TRUNCATION_EPS
from zgff.tension import log_partition_directed


def test_basic_law_examples():
    law = basic_increment_law(0.25)
    assert law.y_variance == pytest.approx(0.5)
    assert law.probs @ law.dys == 0.0
    with pytest.raises(StructureError):
        basic_increment_law(0.0)      # documented degenerate boundary case
    with pytest.raises(StructureError):
        basic_increment_law(0.5)


def test_fs_bridge_spec_needs_a_positive_tilt():
    for N in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(StructureError):
            fs_bridge_spec(N, basic_increment_law(0.25))


def test_increment_law_validation():
    with pytest.raises(StructureError):
        IncrementLaw(dys=[0, 1], probs=[0.6, 0.5])
    with pytest.raises(StructureError):
        IncrementLaw(dys=[0, 1], probs=[1.0])
    with pytest.raises(StructureError):
        IncrementLaw(dys=[(1, 0), (1, 1)], probs=[0.5, 0.5])
    with pytest.raises(StructureError):
        IncrementLaw(dys=[0.0, 1.0], probs=[0.5, 0.5])


def test_laplace_law_variance_and_tail():
    for beta in (0.8, 1.3, 2.0):
        law = laplace_increment_law(beta)
        t = math.exp(-beta)
        assert abs(law.y_variance - 2 * t / (1 - t) ** 2) < 1e-12
        assert abs(law.probs @ law.dys) < 1e-15
        R = law.dys.max()
        assert law.dys.tolist() == list(range(-R, R + 1))
        assert t ** (R + 1) < TRUNCATION_EPS    # the first omitted weight
    with pytest.raises(StructureError):
        laplace_increment_law(0.0)


def test_laplace_bridge_partition_matches_log_partition_directed():
    # a tilt-free bridge of M + 1 Laplace steps sums the polymer's M + 1
    # vertical runs, each normalized by coth(beta/2)
    for beta in (1.3, 2.0):
        law = laplace_increment_law(beta)
        R = int(law.dys.max())
        for M, Y in ((1, 0), (2, 1), (2, 3)):
            spec = TiltedBridgeSpec(u=(0, 0), v=(M + 1, Y), floor=-R * (M + 1),
                                    tilt_N=math.inf, law=law)
            _, w = enumerate_bridge(spec)
            lhs = log_partition_directed(M, Y, beta) + beta * M
            rhs = (M + 1) * math.log(1 / math.tanh(beta / 2)) + math.log(w.sum())
            assert abs(lhs - rhs) < 1e-12, (beta, M, Y)


def test_two_path_bridge_closed_form():
    flat = IncrementLaw(dys=[0, 1, -1], probs=[1 / 3] * 3)
    spec = TiltedBridgeSpec(u=(0, 0), v=(2, 0), floor=0, tilt_N=1.0, law=flat)
    paths, w = enumerate_bridge(spec)
    probs = w / w.sum()
    low = probs[[list(p) == [0, 0, 0] for p in paths].index(True)]
    assert low == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_bridge_spec_validation():
    law = basic_increment_law(0.25)
    with pytest.raises(StructureError):
        TiltedBridgeSpec(u=(2, 0), v=(1, 0), floor=0, tilt_N=1.0, law=law)
    with pytest.raises(InfeasibleError):
        TiltedBridgeSpec(u=(0, 0), v=(4, 0), floor=1, tilt_N=1.0, law=law)
    with pytest.raises(InfeasibleError):
        TiltedBridgeSpec(u=(0, 5), v=(4, 5), floor=0, tilt_N=1.0, law=law,
                         ceiling=4)


def test_infeasible_endpoints_under_support():
    law = basic_increment_law(0.25)
    spec = TiltedBridgeSpec(u=(0, 0), v=(3, 9), floor=0, tilt_N=math.inf,
                            law=law)
    with pytest.raises(InfeasibleError):
        transfer_matrix_exact(spec)


def test_transfer_matches_enumeration_to_1e12():
    basic = TiltedBridgeSpec(u=(0, 1), v=(6, 2), floor=0, tilt_N=5.0,
                             law=basic_increment_law(0.25), ceiling=6)
    laplace = TiltedBridgeSpec(u=(0, 1), v=(3, 2), floor=0, tilt_N=5.0,
                               law=laplace_increment_law(2.0), ceiling=12)
    for spec in (basic, laplace):
        heights, marg = transfer_matrix_exact(spec)
        paths, w = enumerate_bridge(spec)
        w = w / w.sum()
        for col in range(spec.width + 1):
            exact = np.zeros(len(heights))
            for pth, ww in zip(paths, w):
                exact[pth[col] - heights[0]] += ww
            assert np.abs(exact - marg[col]).max() < 1e-12
            assert abs(marg[col].sum() - 1.0) < 1e-12


def test_untilted_bridge_symmetries():
    law = basic_increment_law(0.3)
    spec = TiltedBridgeSpec(u=(0, 4), v=(8, 4), floor=0, tilt_N=math.inf,
                            law=law, ceiling=8)
    heights, m = transfer_matrix_exact(spec)
    # time reversal: marginals symmetric in the column index
    assert np.abs(m - m[::-1]).max() < 1e-14
    # y-reflection about the endpoint line when no floor binds
    i4 = list(heights).index(4)
    mid = m[4]
    for d in range(1, 4):
        assert mid[i4 + d] == pytest.approx(mid[i4 - d], abs=1e-14)


def test_tilt_lowers_marginals_stochastically():
    law = basic_increment_law(0.25)
    kw = dict(u=(0, 3), v=(8, 3), floor=0, law=law, ceiling=10)
    _, m_un = transfer_matrix_exact(TiltedBridgeSpec(tilt_N=math.inf, **kw))
    _, m_t3 = transfer_matrix_exact(TiltedBridgeSpec(tilt_N=3.0, **kw))
    _, m_t9 = transfer_matrix_exact(TiltedBridgeSpec(tilt_N=9.0, **kw))
    for col in range(1, 8):
        cdf_un = np.cumsum(m_un[col])
        cdf_t9 = np.cumsum(m_t9[col])
        cdf_t3 = np.cumsum(m_t3[col])
        assert np.all(cdf_t3 >= cdf_t9 - 1e-14)
        assert np.all(cdf_t9 >= cdf_un - 1e-14)


def test_tilt_to_infinity_matches_untilted_enumeration():
    law = basic_increment_law(0.25)
    spec_inf = TiltedBridgeSpec(u=(0, 2), v=(6, 2), floor=0, tilt_N=math.inf,
                                law=law, ceiling=6)
    heights, m = transfer_matrix_exact(spec_inf)
    paths, w = enumerate_bridge(spec_inf)
    w = w / w.sum()
    mid = np.zeros(len(heights))
    for pth, ww in zip(paths, w):
        mid[pth[3] - heights[0]] += ww
    assert 0.5 * np.abs(mid - m[3]).sum() < 1e-12   # TV, exact on both sides


def test_transfer_sampler_matches_exact_marginals():
    law = basic_increment_law(0.25)
    spec = TiltedBridgeSpec(u=(0, 1), v=(12, 1), floor=0, tilt_N=4.0, law=law,
                            ceiling=12)
    heights, marg = transfer_matrix_exact(spec)
    paths, diag = sample_tilted_bridge(spec, 30000, seed=4, method="transfer")
    assert diag["method"] == "transfer"
    assert paths.shape == (30000, 13)
    assert np.all(paths >= 0)
    assert np.all(paths[:, 0] == 1) and np.all(paths[:, -1] == 1)
    for col in (3, 6, 9):
        emp = np.bincount(paths[:, col], minlength=heights[-1] + 1)[heights[0]:]
        emp = emp / len(paths)
        se = np.sqrt(np.maximum(marg[col] * (1 - marg[col]), 1e-12) / len(paths))
        assert np.all(np.abs(emp - marg[col]) <= 4 * se + 1e-9)


def test_enumerate_sampler_on_short_bridge():
    law = basic_increment_law(0.25)
    spec = TiltedBridgeSpec(u=(0, 0), v=(5, 1), floor=0, tilt_N=3.0, law=law)
    feasible = {tuple(p) for p in enumerate_bridge(spec)[0].tolist()}
    paths, diag = sample_tilted_bridge(spec, 500, seed=1, method="transfer")
    assert diag["method"] == "transfer"
    assert {tuple(p) for p in paths.tolist()} <= feasible


def test_mcmc_sampler_validated_against_oracle():
    law = basic_increment_law(0.25)
    spec = TiltedBridgeSpec(u=(0, 1), v=(10, 1), floor=0, tilt_N=4.0, law=law,
                            ceiling=10)
    heights, marg = transfer_matrix_exact(spec)
    samples, diag = sample_tilted_bridge(spec, 20000, seed=2, method="mcmc",
                                         mcmc_sweeps_per_sample=6)
    assert 0.05 < diag["acceptance_rate"] < 0.95
    col = 5
    emp = np.bincount(samples[:, col], minlength=heights[-1] + 1)[heights[0]:]
    emp = emp / len(samples)
    tau = max(diag["midpoint_autocorr_samples"], 0.5)
    n_eff = len(samples) / (2 * tau)
    se = np.sqrt(np.maximum(marg[col] * (1 - marg[col]), 1e-12) / n_eff)
    assert np.all(np.abs(emp - marg[col]) <= 5 * se + 1e-9)


def test_mcmc_sampler_stream_is_pinned():
    # the bridge of the oracle_small benchmark workload: any change to the
    # Metropolis loop must reproduce these samples and acceptance rate exactly
    spec = TiltedBridgeSpec(u=(0, 2), v=(12, 2), floor=0, tilt_N=6.0,
                            law=basic_increment_law(0.25), ceiling=20)
    samples, diag = sample_tilted_bridge(spec, 5000, 3, method="mcmc",
                                         mcmc_sweeps_per_sample=6)
    digest = hashlib.sha256(np.ascontiguousarray(samples, dtype=np.int64)
                            .tobytes()).hexdigest()
    assert samples.shape == (5000, 13)
    assert digest == ("873d8b1617c37266e70fd52cd28579dea86c471eda9b9d8545441456"
                      "d50cf5f3")
    assert diag["acceptance_rate"] == float.fromhex("0x1.40b4dff8e93c8p-1")


def _sha256(paths):
    return hashlib.sha256(np.ascontiguousarray(paths, dtype=np.int64)
                          .tobytes()).hexdigest()


def test_compiled_pcg64_words_match_numpy():
    out = np.empty(1000, dtype=np.uint64)
    for seed in (0, 3, 11, 2 ** 70 + 5):
        stream = _stream_seed(seed)
        mcmc._library().zgff_pcg64_raw(stream.ctypes.data, out.ctypes.data,
                                        len(out))
        raw = np.random.default_rng(seed).bit_generator.random_raw(len(out))
        assert np.array_equal(out, raw)


# bridges whose Metropolis samples (count, seed, sweeps per sample) were
# hashed from the numpy loop that the compiled chain replaced; with the
# acceptance rate, they pin the compiled chain to numpy's stream
_MCMC_PINNED = {
    "W=2, no column draw": (
        TiltedBridgeSpec(u=(0, 1), v=(2, 1), floor=0, tilt_N=3.0,
                         law=basic_increment_law(0.25), ceiling=5), 2000, 5, 3,
        "c8895f4d3eed4a29fa016b06a873e53ab024f7f102773aa883b112127c0f2d00",
        "0x1.b82acb458a510p-2"),
    "laplace(0.8)": (
        TiltedBridgeSpec(u=(0, 3), v=(16, 5), floor=0, tilt_N=8.0,
                         law=laplace_increment_law(0.8), ceiling=30), 2000, 7, 4,
        "1de87bb504e06b1d060e7854eb50640dd6d098deb8427358ba79408896d01199",
        "0x1.29adfaec782ddp-1"),
    "dys [1, -1], every move absent": (
        TiltedBridgeSpec(u=(0, 0), v=(10, 0), floor=0, tilt_N=5.0,
                         law=IncrementLaw(dys=[1, -1], probs=[0.5, 0.5]),
                         ceiling=6), 500, 1, 2,
        "8c8538911de07e3c35359cd7c2185dc0beaf6f3ae1dc1fe3da67999d5afa689e",
        "0x0.0p+0"),
    "no ceiling": (
        TiltedBridgeSpec(u=(0, 2), v=(14, 3), floor=0, tilt_N=5.0,
                         law=basic_increment_law(0.25)), 2000, 9, 3,
        "75cc68a8fc8f80b000c1a605726fd45190353c68203ed1659f8806d3b9edb05a",
        "0x1.461bc4ddde453p-1"),
    "no tilt": (
        TiltedBridgeSpec(u=(0, 1), v=(10, 1), floor=0, tilt_N=math.inf,
                         law=basic_increment_law(0.3), ceiling=8), 2000, 13, 3,
        "da9ff84d61d51bd271b31bb66d7d7273c39a163ed3904f524fcc546c0df60849",
        "0x1.b1fc5d84ca086p-1"),
}


@pytest.mark.parametrize("case", list(_MCMC_PINNED))
def test_mcmc_sampler_matches_the_numpy_stream(case):
    spec, count, seed, sweeps, digest, rate = _MCMC_PINNED[case]
    samples, diag = sample_tilted_bridge(spec, count, seed, method="mcmc",
                                         mcmc_sweeps_per_sample=sweeps)
    assert samples.shape == (count, spec.width + 1)
    assert _sha256(samples) == digest
    assert diag["acceptance_rate"] == float.fromhex(rate)


def test_transfer_sampler_stream_is_pinned():
    # hashed from the numpy draw that the compiled column step replaced
    spec = TiltedBridgeSpec(u=(0, 4), v=(40, 6), floor=1, tilt_N=20.0,
                            law=laplace_increment_law(1.3))
    paths, _ = sample_tilted_bridge(spec, 3000, 21, method="transfer")
    assert _sha256(paths) == ("7fb4877adb3e878ff6c9667217ec354e62e561fe9d118ce4"
                              "c88039ea3120ab25")


def test_invalid_bridge_counts():
    spec = TiltedBridgeSpec(u=(0, 1), v=(10, 1), floor=0, tilt_N=4.0,
                            law=basic_increment_law(0.25), ceiling=10)
    for sweeps in (0, -2, 1.5):
        with pytest.raises(StructureError):
            sample_tilted_bridge(spec, 10, 0, method="mcmc",
                                 mcmc_sweeps_per_sample=sweeps)
    for method in ("transfer", "mcmc"):
        for count in (-1, 2.0):
            with pytest.raises(StructureError):
                sample_tilted_bridge(spec, count, 0, method=method)
        paths, _ = sample_tilted_bridge(spec, 0, 0, method=method)
        assert paths.shape == (0, 11)


def test_mcmc_infeasible_initial_path():
    law = IncrementLaw(dys=[1, -1], probs=[0.5, 0.5])
    spec = TiltedBridgeSpec(u=(0, 0), v=(4, 1), floor=0, tilt_N=math.inf,
                            law=law)
    with pytest.raises(InfeasibleError):
        sample_tilted_bridge(spec, 10, seed=0, method="mcmc")


def test_fs_comparison_self_consistency_and_power():
    sigma = math.sqrt(0.5)
    model = FSModel(sigma=sigma)
    N = 800.0
    W = int(6 * math.ceil(N ** (2 / 3)))
    rng = np.random.default_rng(6)
    n = 4000
    scale = N ** (1 / 3)
    fake = fs_quantile(rng.random((n, W + 1)), model) * scale
    rep = fs_comparison(fake, N, sigma)
    for t, ks in rep["ks"].items():
        assert ks < 1.36 / math.sqrt(n) * 1.6
    rep_bad = fs_comparison(fake, N, 2 * sigma)
    assert min(rep_bad["ks"].values()) > 3 * max(rep["ks"].values())
    with pytest.raises(DegenerateInputError):
        fs_comparison(fake[:50], N, sigma)
    with pytest.raises(StructureError):
        fs_comparison(fake[:, : W // 2], N, sigma)
