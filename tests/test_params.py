from dataclasses import replace

import numpy as np
import pytest

from eitqfc.errors import NegativeOD, NonFiniteParameter, NonPositiveDecay
from eitqfc.params import SystemParams, is_symmetric, symmetric_params


def test_validate_headline_configuration():
    p = SystemParams(alpha=200.0, omega_c=1.0, omega_d=1.0)
    assert p.alpha == 200.0
    assert is_symmetric(p)


def test_validate_empty_medium():
    p = SystemParams(alpha=0.0)
    assert is_symmetric(p)


def test_negative_decay_rejected():
    with pytest.raises(NonPositiveDecay):
        SystemParams(alpha=50.0, gamma31=-1.0)
    with pytest.raises(NonPositiveDecay):
        SystemParams(alpha=50.0, gamma41=0.0)
    with pytest.raises(NonPositiveDecay):
        SystemParams(alpha=50.0, gamma21=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), complex(1.0, float("nan"))])
@pytest.mark.parametrize("key", ["alpha", "omega_c", "omega_d", "gamma31", "gamma41", "gamma21"])
def test_non_finite_parameter_rejected(key, value):
    with pytest.raises(NonFiniteParameter, match=f"^{key} must be finite"):
        SystemParams(**{"alpha": 1.0, key: value})


def test_negative_od_rejected():
    with pytest.raises(NegativeOD):
        SystemParams(alpha=-1.0)


def test_replace_checks_again():
    p = SystemParams(alpha=12.0, omega_c=0.5 + 0.25j, omega_d=0.5 + 0.25j)
    assert replace(p, alpha=1.0) == SystemParams(alpha=1.0, omega_c=0.5 + 0.25j, omega_d=0.5 + 0.25j)
    with pytest.raises(NegativeOD, match=r"^optical depth must be >= 0, got -1\.0$"):
        replace(p, alpha=-1.0)


def test_symmetric_predicate_rejects_asymmetry():
    assert not is_symmetric(SystemParams(alpha=1.0, omega_c=1.0, omega_d=2.0))
    assert not is_symmetric(SystemParams(alpha=1.0, gamma31=2.0))
    assert not is_symmetric(SystemParams(alpha=1.0, gamma41=0.5))
    assert not is_symmetric(SystemParams(alpha=1.0, gamma21=0.1))


def test_symmetric_predicate_phase_rotation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mag = rng.uniform(0.1, 5.0)
        phases = rng.uniform(0, 2 * np.pi, size=2)
        base = SystemParams(alpha=3.0, omega_c=mag, omega_d=mag * np.exp(1j * phases[0]))
        common = rng.uniform(0, 2 * np.pi)
        rotated = SystemParams(
            alpha=3.0,
            omega_c=base.omega_c * np.exp(1j * common),
            omega_d=base.omega_d * np.exp(1j * common),
        )
        assert is_symmetric(base) == is_symmetric(rotated)


def test_symmetric_params_constructor():
    p = symmetric_params(40.0, omega=2.0 * np.exp(0.3j))
    assert is_symmetric(p)
    assert p.omega_c == p.omega_d
