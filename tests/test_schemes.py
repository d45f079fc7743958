import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayswipt.model import SystemConfig, frames_from_uniforms
from relayswipt.schemes import (
    Metric,
    ParetoOptimal,
    ThresholdChecking,
    TimeSharing,
    WeightedDifference,
    select,
    select_indices,
    validate_scheme,
)
from relayswipt.simulate import frame_uniforms

BEST_SNR, BEST_ENERGY = TimeSharing(mu=1.0), TimeSharing(mu=0.0)


def oracle(snr, energy, scheme, coin, threshold):
    """The per-frame selection rules in plain Python, independent of select_indices."""
    best_snr = max(range(len(snr)), key=lambda i: (snr[i], -i))
    best_energy = max(range(len(energy)), key=lambda i: (energy[i], -i))
    if isinstance(scheme, TimeSharing):
        return best_snr if coin < scheme.mu else best_energy
    if isinstance(scheme, ThresholdChecking):
        return best_snr if snr[best_snr] >= scheme.tau else best_energy
    if isinstance(scheme, WeightedDifference):
        weight, lhs = scheme.nu, snr[0] - snr[1]
    elif scheme.metric is Metric.CAPACITY:
        weight, lhs = scheme.zeta, 0.5 * math.log2(1.0 + snr[0]) - 0.5 * math.log2(1.0 + snr[1])
    else:
        weight, lhs = scheme.zeta, float(snr[0] >= threshold) - float(snr[1] >= threshold)
    if math.isinf(weight):
        return best_energy
    rhs = weight * (energy[1] - energy[0])
    if lhs != rhs:
        return 0 if lhs > rhs else 1
    if isinstance(scheme, WeightedDifference):
        return 0
    return 1 if energy[1] > energy[0] else 0


def test_param_validation():
    with pytest.raises(ValueError):
        TimeSharing(mu=1.5)
    with pytest.raises(ValueError):
        TimeSharing(mu=-0.1)
    with pytest.raises(ValueError):
        ThresholdChecking(tau=-1.0)
    with pytest.raises(ValueError):
        WeightedDifference(nu=-2.0)
    with pytest.raises(ValueError):
        ParetoOptimal(zeta=-1.0)
    with pytest.raises(ValueError):
        ParetoOptimal(zeta=1.0, metric="capacity")  # must be a Metric
    # boundary parameters are allowed
    TimeSharing(mu=0.0)
    TimeSharing(mu=1.0)
    ThresholdChecking(tau=0.0)
    ThresholdChecking(tau=math.inf)
    WeightedDifference(nu=0.0)
    WeightedDifference(nu=math.inf)
    ParetoOptimal(zeta=0.0, metric=Metric.OUTAGE_INDICATOR)
    ParetoOptimal(zeta=math.inf)


def test_two_relay_schemes_reject_other_sizes():
    f3 = ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        select(*f3, WeightedDifference(nu=1.0))
    with pytest.raises(ValueError):
        select(*f3, ParetoOptimal(zeta=1.0))
    with pytest.raises(ValueError):
        validate_scheme(WeightedDifference(nu=1.0), 3)
    with pytest.raises(ValueError):
        validate_scheme(ParetoOptimal(zeta=1.0), 1)


def test_select_validates_the_frame():
    with pytest.raises(ValueError, match="equal nonzero length"):
        select([1.0, 2.0], [1.0], BEST_SNR)
    with pytest.raises(ValueError, match="equal nonzero length"):
        select([], [], BEST_SNR)
    with pytest.raises(ValueError, match="equal nonzero length"):
        select([[1.0, 2.0]], [[1.0, 1.0]], BEST_SNR)  # a batch is select_indices' job
    with pytest.raises(ValueError, match="nonnegative"):
        select([-1.0, 2.0], [1.0, 1.0], BEST_SNR)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            select([bad, 2.0], [1.0, 1.0], BEST_SNR)
        with pytest.raises(ValueError, match="finite"):
            select([1.0, 2.0], [1.0, bad], BEST_SNR)


@pytest.mark.parametrize("coin", [1.0, 1.5, -0.5, math.nan, math.inf])
def test_select_rejects_a_coin_outside_the_unit_interval(coin):
    # mu = 1 always picks the best-SNR relay and mu = 0 never does, whatever the
    # coin; an out-of-range coin would otherwise pick the other relay
    f = ([5.0, 1.0], [0.1, 9.0])
    for mu in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"coin must be in \[0, 1\)"):
            select(*f, TimeSharing(mu=mu), coin=coin)
    assert select(*f, TimeSharing(mu=1.0), coin=0.0) == 0
    assert select(*f, TimeSharing(mu=0.0), coin=0.0) == 1


def test_select_rejects_a_nan_outage_threshold():
    scheme = ParetoOptimal(zeta=1.0, metric=Metric.OUTAGE_INDICATOR)
    with pytest.raises(ValueError, match="outage_threshold"):
        select([5.0, 1.0], [0.1, 9.0], scheme, outage_threshold=math.nan)
    assert select([5.0, 1.0], [0.1, 9.0], scheme, outage_threshold=0.0) == 1  # a 0 stays valid


def test_argmax_examples():
    assert select([1.0, 3.0, 2.0], [0.0, 0.0, 0.0], BEST_SNR) == 1
    assert select([0.0, 0.0], [4.0, 4.0], BEST_ENERGY) == 0  # tie -> lowest index
    assert select([7.0], [1.0], BEST_SNR) == 0


def test_time_sharing_examples():
    f = ([1.0, 3.0], [5.0, 2.0])
    assert select(*f, TimeSharing(mu=0.5), coin=0.0) == 1  # best SNR
    assert select(*f, TimeSharing(mu=0.5), coin=0.9) == 0  # best energy
    for coin in (0.0, 0.5, 0.999999):
        assert select(*f, TimeSharing(mu=1.0), coin=coin) == 1


def test_threshold_examples():
    f = ([1.0, 3.0], [5.0, 2.0])
    assert select(*f, ThresholdChecking(tau=2.0)) == 1
    assert select(*f, ThresholdChecking(tau=4.0)) == 0
    assert select(*f, ThresholdChecking(tau=0.0)) == 1
    assert select(*f, ThresholdChecking(tau=math.inf)) == 0


def test_weighted_difference_examples():
    dominant = ([3.0, 1.0], [5.0, 2.0])
    for nu in (0.0, 1.0, 10.0, math.inf):
        assert select(*dominant, WeightedDifference(nu=nu)) == 0
    f = ([1.0, 3.0], [5.0, 2.0])
    assert select(*f, WeightedDifference(nu=0.0)) == 1  # reduces to max-SNR
    assert select(*f, WeightedDifference(nu=1.0)) == 0  # -2 > 1*(-3)
    # exact tie goes to the first relay
    tied = ([1.0, 3.0], [4.0, 2.0])  # lhs = -2, rhs = nu*(-2)
    assert select(*tied, WeightedDifference(nu=1.0)) == 0


def test_pareto_examples():
    # zero weight with the capacity metric is max-SNR selection
    f = ([1.0, 3.0], [5.0, 2.0])
    assert select(*f, ParetoOptimal(zeta=0.0, metric=Metric.CAPACITY)) == select(*f, BEST_SNR)
    # infinite weight is best-energy selection
    assert select(*f, ParetoOptimal(zeta=math.inf)) == select(*f, BEST_ENERGY) == 0
    outage = ParetoOptimal(zeta=0.1, metric=Metric.OUTAGE_INDICATOR)
    # both relays above threshold: metric tie broken by energy
    assert select([2.0, 3.0], [1.0, 4.0], outage, outage_threshold=1.0) == 1
    # one relay above threshold and worth its energy deficit
    assert select([2.0, 0.5], [1.0, 4.0], outage, outage_threshold=1.0) == 0
    # exact tie (equal metric, equal energy) goes to the first relay
    f = ([2.0, 3.0], [2.0, 2.0])
    assert select(*f, ParetoOptimal(zeta=0.5, metric=Metric.OUTAGE_INDICATOR)) == 0


def test_outage_metric_counts_the_threshold_as_no_outage():
    """snr == threshold is no outage, as in the engine, which counts snr < threshold."""
    scheme = ParetoOptimal(zeta=0.1, metric=Metric.OUTAGE_INDICATOR)
    snr, energy = np.array([[1.0, 0.5]]), np.array([[1.0, 2.0]])
    assert select_indices(scheme, snr, energy, outage_threshold=1.0)[0] == 0


@given(
    st.lists(st.floats(0.01, 100.0), min_size=2, max_size=6),
    st.integers(-60, 60),
)
@settings(max_examples=200, deadline=None)
def test_argmax_scale_invariance(values, exponent):
    """Scaling by a power of two is exact, so it keeps every order and every tie;
    a general scale may round two values into a tie (99.99999999999999 and 100.0
    times 655.9756717180808 do)."""
    f1 = (values, values)
    f2 = ([math.ldexp(v, exponent) for v in values], values)
    assert select(*f1, BEST_SNR) == select(*f2, BEST_SNR)


@given(
    st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=6, unique=True),
    st.floats(1e-300, 9.7e306),
    st.floats(1e-300, 1e300),
)
@settings(max_examples=300, deadline=None)
def test_argmax_is_invariant_under_the_inverse_cdf(draws, mean_snr, mean_energy):
    """The engine's transform is nondecreasing in the draw, so the best relay by
    its uniforms is the best by its SNR or energy wherever the transform keeps
    the draws apart (two draws a few 2**-53 apart may round to one value)."""
    u = np.array(draws) * 2.0**-53
    n = u.size
    cfg = SystemConfig(n, mean_snr, mean_energy)
    snr, energy, _ = frames_from_uniforms(cfg, np.concatenate([u, u, [0.0]])[None, :])
    order = np.argsort(u)
    for values in (snr[0], energy[0]):
        assert np.all(np.diff(values[order]) >= 0.0)
        if np.unique(values).size == n:
            assert select(u, u, BEST_SNR) == select(values, values, BEST_SNR)


@given(
    st.integers(0, 1),
    st.floats(0.0, 0.999),
    st.floats(0.0, 1.0),
    st.floats(0.0, 100.0),
    st.floats(0.0, 50.0),
)
@settings(max_examples=300, deadline=None)
def test_monotone_dominance(winner, coin, mu, tau, weight):
    """A relay that is strictly best in SNR and energy is always selected."""
    snr = [1.0, 1.0]
    energy = [1.0, 1.0]
    snr[winner] = 2.0
    energy[winner] = 2.0
    f = (snr, energy)
    assert select(*f, TimeSharing(mu=mu), coin=coin) == winner
    assert select(*f, ThresholdChecking(tau=tau)) == winner
    assert select(*f, WeightedDifference(nu=weight)) == winner
    for metric in Metric:
        assert select(*f, ParetoOptimal(zeta=weight, metric=metric), outage_threshold=1.5) == winner


_TIE_VALUES = [0.0, 0.5, 1.0, 2.0]
# the edges of the best-relay index widths: one byte holds relays 0..255
_WIDE_RELAYS = [255, 256, 257, 300]


@st.composite
def _tied_batch(draw):
    """Frames over a few values, so row, metric and threshold ties are common.

    At the index-width edges the lower values come from a drawn seed and the
    top value sits at up to three drawn columns of a frame, so that late
    winners and ties between them occur.
    """
    n_relays = draw(st.one_of(st.just(2), st.integers(1, 8),  # N = 2 has four schemes
                              st.sampled_from(_WIDE_RELAYS)))
    m = draw(st.integers(1, 12))
    if n_relays in _WIDE_RELAYS:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tops = st.lists(st.integers(0, n_relays - 1), max_size=3)
        snr, energy = rng.choice(_TIE_VALUES[:-1], size=(2, m, n_relays))
        for row in [*snr, *energy]:
            row[draw(tops)] = _TIE_VALUES[-1]
    else:
        values = st.lists(st.sampled_from(_TIE_VALUES), min_size=n_relays * m,
                          max_size=n_relays * m)
        snr = np.array(draw(values)).reshape(m, n_relays)
        energy = np.array(draw(values)).reshape(m, n_relays)
    coins = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                                   min_size=m, max_size=m)))
    levels = st.sampled_from(_TIE_VALUES + [math.inf])
    schemes = [
        st.builds(TimeSharing, mu=st.sampled_from([0.0, 0.5, 1.0])),
        st.builds(ThresholdChecking, tau=levels),
    ]
    if n_relays == 2:
        schemes += [
            st.builds(WeightedDifference, nu=levels),
            st.builds(ParetoOptimal, zeta=levels, metric=st.sampled_from(Metric)),
        ]
    return snr, energy, coins, draw(st.one_of(schemes)), draw(st.sampled_from(_TIE_VALUES))


@given(_tied_batch())
@settings(max_examples=400, deadline=None)
def test_tie_heavy_batches_match_the_oracle(batch):
    snr, energy, coins, scheme, threshold = batch
    vec = select_indices(scheme, snr, energy, coins, outage_threshold=threshold)
    for k in range(snr.shape[0]):
        expected = oracle(snr[k], energy[k], scheme, coins[k], threshold)
        assert vec[k] == expected
        picked = select(snr[k], energy[k], scheme, coin=coins[k], outage_threshold=threshold)
        assert picked == expected


def test_select_indices_rejects_bad_shapes():
    snr, energy, coins = np.ones((4, 3)), np.ones((4, 3)), np.zeros(4)
    scheme = TimeSharing(mu=0.5)
    with pytest.raises(ValueError, match="snr must have shape"):
        select_indices(scheme, snr[0], energy[0], coins[:1])  # one frame, 1-D
    with pytest.raises(ValueError, match="snr must have shape"):
        select_indices(scheme, snr[None], energy[None], coins)
    with pytest.raises(ValueError, match="energy shape"):
        select_indices(scheme, snr, energy[:1], coins)  # would broadcast
    with pytest.raises(ValueError, match="energy shape"):
        select_indices(ThresholdChecking(tau=1.0), snr, energy[:, :2])
    with pytest.raises(ValueError, match="coins must have shape"):
        select_indices(scheme, snr, energy, coins[:3])
    with pytest.raises(ValueError, match="coins must have shape"):
        select_indices(scheme, snr, energy, coins[:, None])
    assert select_indices(scheme, snr, energy, coins).shape == (4,)


def test_time_sharing_batch_needs_coins():
    snr = energy = np.ones((4, 2))
    with pytest.raises(ValueError, match="^time sharing needs per-frame coins$"):
        select_indices(TimeSharing(mu=0.5), snr, energy)


_NAN_SCHEMES = [
    TimeSharing(mu=0.0),
    TimeSharing(mu=1.0),
    ThresholdChecking(tau=1.0),
    ThresholdChecking(tau=math.inf),
    WeightedDifference(nu=0.5),
    ParetoOptimal(zeta=0.5, metric=Metric.CAPACITY),
    ParetoOptimal(zeta=0.5, metric=Metric.OUTAGE_INDICATOR),  # ">=" alone swallows NaN
]


@pytest.mark.parametrize("scheme, n_relays", [
    (scheme, n) for scheme in _NAN_SCHEMES for n in (1, 2, 3)
    if n == 2 or isinstance(scheme, (TimeSharing, ThresholdChecking))
], ids=repr)
@pytest.mark.parametrize("array", ["snr", "energy"])
def test_select_indices_rejects_nan(scheme, n_relays, array):
    frames = {"snr": np.full((3, n_relays), 2.0), "energy": np.ones((3, n_relays))}
    frames[array][1, n_relays - 1] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        select_indices(scheme, frames["snr"], frames["energy"], np.zeros(3), 1.0)


@pytest.mark.parametrize("scheme", [WeightedDifference(nu=math.inf),
                                    ParetoOptimal(zeta=math.inf)], ids=repr)
def test_infinite_weight_reads_and_checks_only_energy(scheme):
    snr, energy = np.array([[1.0, math.nan]]), np.array([[1.0, math.nan]])
    with pytest.raises(ValueError, match="NaN"):
        select_indices(scheme, np.ones((1, 2)), energy)
    assert select_indices(scheme, snr, np.array([[1.0, 2.0]]))[0] == 1


@pytest.mark.parametrize("metric", [None, Metric.CAPACITY])
def test_two_relay_rules_reject_nan_made_from_infinities(metric):
    """inf - inf (two infinite SNRs) and 0 * inf (zero weight, infinite energy gap) are NaN."""
    def rule(weight):
        return WeightedDifference(weight) if metric is None else ParetoOptimal(weight, metric)
    ones = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError, match="NaN"), np.errstate(invalid="ignore"):
        select_indices(rule(0.5), np.array([[math.inf, math.inf]]), ones)
    with pytest.raises(ValueError, match="NaN"), np.errstate(invalid="ignore"):
        select_indices(rule(0.0), ones, np.array([[1.0, math.inf]]))


def test_select_indices_takes_an_empty_batch():
    for scheme in _NAN_SCHEMES:
        assert select_indices(scheme, np.ones((0, 2)), np.ones((0, 2)), np.zeros(0)).size == 0


def _schemes_at(n_relays):
    """Every rule the relay count allows, with finite and infinite weights."""
    schemes = [TimeSharing(mu=0.3), BEST_SNR, BEST_ENERGY, ThresholdChecking(tau=4.0),
               ThresholdChecking(tau=0.0), ThresholdChecking(tau=math.inf)]
    if n_relays == 2:
        for weight in (0.0, 0.7, math.inf):
            schemes += [WeightedDifference(nu=weight),
                        ParetoOptimal(zeta=weight, metric=Metric.CAPACITY),
                        ParetoOptimal(zeta=weight, metric=Metric.OUTAGE_INDICATOR)]
    return schemes


@pytest.mark.parametrize("n_relays", [1, 2, 3, 8, *_WIDE_RELAYS])
def test_rules_leave_read_only_inputs_alone(n_relays):
    """As the frame memo hands chunks over: the transformed frames, read-only.

    The second batch is rounded so that ties, and so every tie rule, occur.
    """
    cfg = SystemConfig(n_relays, 10.0, 1.0, 1.0)
    snr, energy, coins = frames_from_uniforms(cfg, frame_uniforms(5, n_relays, 0, 400))
    for batch in [(snr, energy, coins), (np.round(snr), np.round(energy, 1), coins)]:
        before = [a.copy() for a in batch]
        for a in batch:
            a.flags.writeable = False
        for scheme in _schemes_at(n_relays):
            copies = [a.copy() for a in batch]
            sel = select_indices(scheme, *batch, outage_threshold=1.0)
            assert sel.dtype == np.intp and sel.shape == coins.shape
            assert np.array_equal(sel, select_indices(scheme, *copies, outage_threshold=1.0))
            for a, b, c in zip(before, batch, copies):
                assert np.array_equal(a, b) and np.array_equal(a, c)


def _random_batch(seed, count):
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    u = frame_uniforms(seed, 2, 0, count)
    return frames_from_uniforms(cfg, u)


def test_zero_weight_policies_reduce_to_max_snr():
    snr, energy, _ = _random_batch(7, 1000)
    kappa = np.argmax(snr, axis=1)
    wd = select_indices(WeightedDifference(nu=0.0), snr, energy)
    po = select_indices(ParetoOptimal(zeta=0.0, metric=Metric.CAPACITY), snr, energy)
    assert np.array_equal(wd, kappa)
    assert np.array_equal(po, kappa)


def test_vectorized_matches_scalar_on_random_frames():
    snr, energy, coins = _random_batch(11, 2000)
    schemes = [
        TimeSharing(mu=0.3),
        ThresholdChecking(tau=4.0),
        WeightedDifference(nu=0.7),
        WeightedDifference(nu=math.inf),
        ParetoOptimal(zeta=0.4, metric=Metric.CAPACITY),
        ParetoOptimal(zeta=0.4, metric=Metric.OUTAGE_INDICATOR),
        ParetoOptimal(zeta=0.0, metric=Metric.OUTAGE_INDICATOR),  # ties go by energy
        ParetoOptimal(zeta=math.inf, metric=Metric.CAPACITY),
        ParetoOptimal(zeta=math.inf, metric=Metric.OUTAGE_INDICATOR),
    ]
    for scheme in schemes:
        vec = select_indices(scheme, snr, energy, coins, outage_threshold=1.0)
        for k in range(0, 2000, 97):
            expected = oracle(snr[k], energy[k], scheme, coins[k], 1.0)
            assert vec[k] == expected
            picked = select(snr[k], energy[k], scheme, coin=coins[k], outage_threshold=1.0)
            assert picked == expected


def test_pareto_outage_agrees_with_case_enumeration():
    """The decision rule must match the explicit no-outage case analysis."""
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    u = frame_uniforms(99, 2, 0, 1_000_000)
    snr, energy, _ = frames_from_uniforms(cfg, u)
    zeta = 0.4
    th = 1.0
    rule = select_indices(
        ParetoOptimal(zeta=zeta, metric=Metric.OUTAGE_INDICATOR), snr, energy,
        outage_threshold=th,
    )
    above1 = snr[:, 0] > th
    above2 = snr[:, 1] > th
    prefer_energy = (energy[:, 1] > energy[:, 0]).astype(np.intp)
    enumerated = np.where(
        above1 == above2,
        prefer_energy,  # no outage difference: take the larger energy
        np.where(
            above1,
            # relay 0 avoids outage; keep it unless relay 1 pays > 1/zeta more
            (energy[:, 1] > energy[:, 0] + 1.0 / zeta).astype(np.intp),
            1 - (energy[:, 0] > energy[:, 1] + 1.0 / zeta).astype(np.intp),
        ),
    )
    assert np.array_equal(rule, enumerated)
