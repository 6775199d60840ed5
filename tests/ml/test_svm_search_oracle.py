"""Oracle test: the vectorised SMO fallback search fits bit-identically.

``LegacySVC`` keeps the scalar search that ``SVC._examine`` replaced, copied
verbatim: after the max-|Ei - Ej| second choice it calls ``_step(i, j)`` for
every free ``j`` and then for every ``j``.  The vectorised search must update
the same pairs in the same order with the same arithmetic, so every fitted
attribute is compared with exact equality, never a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.svm import SVC


class LegacySVC(SVC):
    """``SVC`` with the scalar fallback search it shipped with before."""

    def _examine(self, i: int, X, t, K, alpha, E) -> int:
        """Platt's examineExample: returns 1 if a pair was optimized."""
        Ei = E[i]
        ri = Ei * t[i]
        if (ri < -self.tol and alpha[i] < self.C) or (ri > self.tol and alpha[i] > 0):
            # Second-choice heuristic: maximize |Ei - Ej| over free alphas.
            free = np.nonzero((alpha > 0) & (alpha < self.C))[0]
            if free.size > 1:
                j = int(free[np.argmax(np.abs(E[free] - Ei))])
                if j != i and self._step(i, j, t, K, alpha, E):
                    return 1
            # Fall back: all indices in a fixed scan.
            for j in np.nonzero((alpha > 0) & (alpha < self.C))[0]:
                if j != i and self._step(i, int(j), t, K, alpha, E):
                    return 1
            for j in range(len(alpha)):
                if j != i and self._step(i, j, t, K, alpha, E):
                    return 1
        return 0

    def _step(self, i: int, j: int, t, K, alpha, E) -> bool:
        """Jointly optimize (alpha_i, alpha_j); returns True on progress."""
        ai_old, aj_old = alpha[i], alpha[j]
        if t[i] != t[j]:
            L = max(0.0, aj_old - ai_old)
            H = min(self.C, self.C + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - self.C)
            H = min(self.C, ai_old + aj_old)
        if H - L < 1e-12:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            return False  # non-positive curvature: skip (rare with PD kernels)
        aj = aj_old + t[j] * (E[i] - E[j]) / eta
        aj = min(max(aj, L), H)
        if abs(aj - aj_old) < 1e-8 * (aj + aj_old + 1e-8):
            return False
        ai = ai_old + t[i] * t[j] * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        # Incremental error-cache update (O(n)): f changes by
        # d_i*K[i,:] + d_j*K[j,:] where d = t*(a_new - a_old).
        di = t[i] * (ai - ai_old)
        dj = t[j] * (aj - aj_old)
        E += di * K[i] + dj * K[j]
        return True


def laplacian(X, Z):
    """A user-supplied kernel: ``exp(-0.5 * ||x - z||_1)``."""
    return np.exp(-0.5 * np.abs(X[:, None, :] - Z[None, :, :]).sum(axis=2))


KERNELS = {
    "rbf": {"kernel": "rbf", "gamma": "scale"},
    "rbf-wide": {"kernel": "rbf", "gamma": 0.05},
    "linear": {"kernel": "linear"},
    "poly": {"kernel": "poly", "gamma": 0.5},
    "callable": {"kernel": laplacian},
}


def assert_same_fit(new: SVC, legacy: SVC) -> None:
    assert np.array_equal(new.support_, legacy.support_)
    assert np.array_equal(new.dual_coef_, legacy.dual_coef_)
    assert new.intercept_ == legacy.intercept_
    assert new.n_iter_ == legacy.n_iter_
    assert isinstance(new.n_iter_, int) and new.n_iter_ > 0


def fit_both(X, y, **params):
    new = SVC(**params).fit(X, y)
    legacy = LegacySVC(**params).fit(X, y)
    return new, legacy


@st.composite
def problems(draw):
    """A small binary problem, sometimes imbalanced, with duplicated rows."""
    n = draw(st.integers(4, 36))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pos = draw(st.integers(1, n - 1))  # anywhere from 1:n-1 to n-1:1
    y = np.zeros(n, dtype=int)
    y[rng.permutation(n)[:n_pos]] = 1
    X = rng.normal(size=(n, d)) + draw(st.floats(0.0, 3.0)) * y[:, None]
    # Copies of earlier rows (label kept or not) give eta == 0 pairs.
    n_dup = draw(st.integers(0, n // 2))
    for dst, src in zip(rng.choice(n, n_dup, replace=False), rng.integers(0, n, n_dup)):
        X[dst] = X[src]
    return X, y


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        problem=problems(),
        kernel=st.sampled_from(sorted(KERNELS)),
        C=st.sampled_from([1e-13, 1e-9, 1e-4, 0.05, 1.0, 20.0, 1e3]),
        seed=st.integers(0, 10_000),
    )
    def test_fit_is_bit_identical(self, problem, kernel, C, seed):
        X, y = problem
        # The cap keeps fits that cycle at tiny n cheap; they still compare.
        new, legacy = fit_both(X, y, C=C, seed=seed, max_iter=2000, **KERNELS[kernel])
        assert_same_fit(new, legacy)

    @settings(max_examples=15, deadline=None)
    @given(problem=problems(), max_iter=st.integers(1, 40))
    def test_iteration_cap_is_bit_identical(self, problem, max_iter):
        X, y = problem
        new, legacy = fit_both(X, y, C=5.0, gamma=0.5, max_iter=max_iter)
        assert_same_fit(new, legacy)
        assert new.n_iter_ <= max_iter

    def test_all_rows_identical(self):
        """Every pair has eta == 0: no step is ever viable."""
        X = np.ones((8, 3))
        y = np.array([0, 1] * 4)
        new, legacy = fit_both(X, y, C=1.0, gamma=1.0)
        assert_same_fit(new, legacy)
        assert new.support_.size == 0

    def test_tiny_box(self):
        """With C ~ 1e-13 every box has H - L < 1e-12."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        y = (X[:, 0] > 0).astype(int)
        new, legacy = fit_both(X, y, C=1e-13, gamma=1.0)
        assert_same_fit(new, legacy)
        assert new.support_.size == 0


@pytest.fixture(scope="module")
def fig5_split():
    """The canonical fig5 corpus at 20 px, split and scaled as fig5 does."""
    from repro.audio.dataset import DatasetSpec, QueenDataset
    from repro.dsp.image import spectrogram_to_image
    from repro.dsp.spectrogram import MelSpectrogram, SpectrogramConfig
    from repro.ml.scaler import StandardScaler
    from repro.ml.split import train_test_split

    spec = DatasetSpec.small(n_samples=160, clip_duration=2.0, seed=5)
    mel = MelSpectrogram(SpectrogramConfig(sample_rate=spec.sample_rate))
    specs, labels = QueenDataset(spec).features(mel.db)
    X = np.stack([spectrogram_to_image(s, 20) for s in specs]).reshape(len(specs), -1)
    Xtr, _, ytr, _ = train_test_split(X, labels, test_fraction=0.3, seed=5)
    return StandardScaler().fit_transform(Xtr), ytr


def test_canonical_fig5_fit_is_bit_identical(fig5_split):
    X, y = fig5_split
    new, legacy = fit_both(X, y, C=20.0, kernel="rbf", gamma="scale", seed=5)
    assert_same_fit(new, legacy)
