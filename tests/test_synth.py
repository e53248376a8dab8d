import numpy as np
import pytest

from convergema import (AnchoringStrategy, GeneratorSpec, LearningScheme,
                        PowerLawCurve, generate)
from convergema.curves import evaluate
from tests.conftest import build_trace


TRUTH = PowerLawCurve(2.0, 0.5, 95.0)


def test_noiseless_matches_truth():
    spec = GeneratorSpec(truth=TRUTH, levels=20)
    log = generate(spec)
    xs = np.array([o.x for o in log], dtype=float)
    expected = evaluate(TRUTH, xs)
    assert np.allclose([o.accuracy for o in log], expected, atol=0.0)
    assert list(xs[:3]) == [5000.0, 10000.0, 15000.0]


def test_seed_determinism():
    spec = GeneratorSpec(truth=TRUTH, levels=15, noise_sd=0.1, seed=7)
    first = [(o.x, o.accuracy) for o in generate(spec)]
    second = [(o.x, o.accuracy) for o in generate(spec)]
    assert first == second
    different = [(o.x, o.accuracy)
                 for o in generate(GeneratorSpec(truth=TRUTH, levels=15,
                                                 noise_sd=0.1, seed=8))]
    assert first != different


def test_spikes_applied():
    base = generate(GeneratorSpec(truth=TRUTH, levels=10))
    spiked = generate(GeneratorSpec(truth=TRUTH, levels=10,
                                    perturbations=((4, -0.8),)))
    deltas = [s.accuracy - b.accuracy for s, b in zip(spiked, base)]
    assert deltas[3] == pytest.approx(-0.8)
    assert all(d == 0.0 for i, d in enumerate(deltas) if i != 3)


def test_clamped_to_unit_interval():
    high = PowerLawCurve(1.0, 0.5, 101.0)
    log = generate(GeneratorSpec(truth=high, levels=8))
    assert max(o.accuracy for o in log) <= 100.0
    low = GeneratorSpec(truth=TRUTH, levels=8, perturbations=((1, -1000.0),))
    assert min(o.accuracy for o in generate(low)) > 0.0


def test_spike_delays_working_level():
    # an early dip wider than the verticality budget pushes omega out
    a = 8 * 5000.0 ** 0.7
    plain = build_trace(a, 0.7, 97.0, 30, AnchoringStrategy.none())
    spiked = build_trace(a, 0.7, 97.0, 30, AnchoringStrategy.none(),
                         perturbations=((4, -0.8),))
    assert plain.wlevel == 3
    assert spiked.wlevel is not None and spiked.wlevel > plain.wlevel
    # brute-force window scan agrees
    from convergema import working_level, verticality_threshold
    bb = spiked.reference_backbone()
    thr = verticality_threshold(2e-5, 1)
    expected = None
    for i in range(len(bb)):
        if i + 6 >= len(bb):
            break
        if all(abs(bb[j + 1].alpha - bb[j].alpha) / (bb[j + 1].x - bb[j].x) <= thr
               for j in range(i, i + 6)):
            expected = bb[i].level
            break
    assert spiked.wlevel == expected


def test_custom_scheme():
    scheme = LearningScheme.uniform(1000, 2000)
    log = generate(GeneratorSpec(truth=TRUTH, levels=5, scheme=scheme))
    assert [o.x for o in log] == [1000, 3000, 5000, 7000, 9000]


def test_fixed_anchoring_on_generated_stream():
    trace = build_trace(300.0, 0.6, 96.0, 18, AnchoringStrategy.fixed(100.0),
                        noise_sd=1e-3, seed=2)
    values = [e.alpha for e in trace.backbone()]
    assert all(b - a <= 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("noise_sd", [float("nan"), float("inf"),
                                      float("-inf")])
def test_generator_rejects_non_finite_noise(noise_sd):
    with pytest.raises(ValueError, match="noise_sd must be finite"):
        GeneratorSpec(truth=TRUTH, levels=5, noise_sd=noise_sd)


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(truth=TRUTH, levels=0)
    with pytest.raises(ValueError):
        GeneratorSpec(truth=TRUTH, levels=5, noise_sd=-0.1)
    with pytest.raises(ValueError):
        GeneratorSpec(truth=TRUTH, levels=5, perturbations=((9, 0.1),))
