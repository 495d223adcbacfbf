import dataclasses
import io
import math
import re
import warnings

import numpy as np
import pytest

from mugroup.channel import (
    MAX_CHANNEL_MAGNITUDE,
    ChannelSet,
    CorrelatedRicianSpec,
    correlation_matrix,
    generate_rician,
    load_channels,
    pairwise_correlation,
    rician_components,
    write_channels,
)
from mugroup.errors import ChannelFormatError

from conftest import vdot_correlation
from reference import loop_correlation_matrix


def spec_with(**kw):
    base = dict(num_users=4, num_tx_antennas=4, num_subcarriers=1,
                k_factor_db=8.0, rho=0.5, correlated_user_count=3, seed=0)
    base.update(kw)
    return CorrelatedRicianSpec(**base)


class TestSpecValidation:
    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            spec_with(rho=1.5)

    def test_correlated_count_exceeds_users(self):
        with pytest.raises(ValueError):
            spec_with(correlated_user_count=5)

    def test_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            spec_with(num_users=0)
        with pytest.raises(ValueError):
            spec_with(num_tx_antennas=-1)

    @pytest.mark.parametrize("k_factor_db", [math.inf, -math.inf, math.nan])
    def test_nonfinite_k_factor(self, k_factor_db):
        with pytest.raises(ValueError, match="k_factor_db must be finite"):
            spec_with(k_factor_db=k_factor_db)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed -1 must not be negative"):
            spec_with(seed=-1)

    def test_k_factor_limit(self):
        # K = 10**(k/10) overflowed above about 3,082 dB; 3000 dB is the limit
        cs = generate_rician(spec_with(k_factor_db=3000.0))
        assert np.isfinite(cs.entries).all()
        for k_db in (np.nextafter(3000.0, math.inf), 4000.0, 1e300):
            with pytest.raises(ValueError, match=re.escape(f"at most 3000 dB, got {k_db}")):
                spec_with(k_factor_db=k_db)

    def test_large_negative_k_factor_is_pure_scattering(self):
        spec = spec_with(k_factor_db=-4000.0)
        assert spec.k_linear == 0.0
        assert np.array_equal(generate_rician(spec).entries, rician_components(spec)[1])

    def test_k_linear_positive(self):
        assert spec_with(k_factor_db=-30.0).k_linear > 0


class TestChannelSetInvariants:
    @pytest.mark.parametrize("dims", [(0, 2, 1), (2, 0, 1), (2, 2, 0)])
    def test_nonpositive_dimensions(self, dims):
        with pytest.raises(ValueError, match=re.escape(f"positive sides, got shape {dims}")):
            ChannelSet(np.zeros(dims, dtype=complex))

    def test_shape_mismatch(self):
        # the sizes come from the array, which must be 3-D
        for shape in ((2, 3), (2, 3, 1, 1), ()):
            with pytest.raises(ValueError, match="3-D array"):
                ChannelSet(np.zeros(shape, dtype=complex))

    def test_sizes_come_from_the_shape(self):
        entries = np.arange(2 * 3 * 4).reshape(2, 3, 4)  # integers, read as complex
        cs = ChannelSet(entries)
        assert (cs.num_users, cs.num_tx_antennas, cs.num_subcarriers) == (2, 3, 4)
        assert cs.entries.dtype == np.complex128 and cs.entries.flags.c_contiguous
        assert np.array_equal(cs.entries, entries)
        entries[0, 0, 0] = 7  # the set holds a copy
        assert cs.entries[0, 0, 0] == 0
        # a non-contiguous view is stored C-ordered, with the view's shape
        view = np.asfortranarray(np.ones((4, 2, 3), dtype=complex))[::2, :, ::-1]
        cs = ChannelSet(view)
        assert (cs.num_users, cs.num_tx_antennas, cs.num_subcarriers) == (2, 2, 3)
        assert cs.entries.flags.c_contiguous
        assert [f.name for f in dataclasses.fields(ChannelSet)] == ["entries"]

    def test_nonfinite_entries(self):
        bad = np.zeros((1, 2, 1), dtype=complex)
        bad[0, 0, 0] = complex(np.nan, 0)
        with pytest.raises(ValueError):
            ChannelSet(bad)

    def test_magnitude_bound(self):
        at_bound = np.full((1, 2, 1), complex(-MAX_CHANNEL_MAGNITUDE, MAX_CHANNEL_MAGNITUDE))
        assert ChannelSet(at_bound).entries[0, 0, 0] == at_bound[0, 0, 0]
        for big in (1e155, 1e155j, -1e101):
            bad = np.zeros((1, 2, 1), dtype=complex)
            bad[0, 1, 0] = big
            with pytest.raises(ValueError, match="at most 1e\\+100"):
                ChannelSet(bad)
        with pytest.raises(ValueError, match="at most 1e\\+100"):
            load_channels(io.StringIO("chset v1 M=1 NT=1 SC=1\n0 0 0 1e155 0\n"))

    def test_entries_frozen(self):
        cs = generate_rician(spec_with())
        with pytest.raises(ValueError):
            cs.entries[0, 0, 0] = 0


class TestGenerateRician:
    def test_deterministic_per_seed(self):
        a = generate_rician(spec_with(seed=11))
        b = generate_rician(spec_with(seed=11))
        assert np.array_equal(a.entries, b.entries)
        c = generate_rician(spec_with(seed=12))
        assert not np.array_equal(a.entries, c.entries)

    def test_expected_norm_is_antenna_count(self):
        # E||h||^2 = Nt per subcarrier regardless of K
        spec = spec_with(num_users=4000, correlated_user_count=0, k_factor_db=5.0)
        cs = generate_rician(spec)
        mean_sq = np.mean(np.abs(cs.entries) ** 2) * spec.num_tx_antennas
        assert mean_sq == pytest.approx(spec.num_tx_antennas, rel=0.05)

    def test_uncorrelated_scattered_parts_at_rho_zero(self):
        # independence: the averaged complex cross-correlation of the
        # scattered parts vanishes even though per-draw magnitudes do not
        acc = 0.0j
        n = 1200
        for seed in range(n):
            _, nlos = rician_components(spec_with(rho=0.0, seed=seed))
            acc += np.vdot(nlos[0], nlos[1]) / nlos.shape[1]
        assert abs(acc / n) < 0.05

    def test_rho_one_shares_scattered_part_exactly(self):
        spec = spec_with(rho=1.0, k_factor_db=-300.0, correlated_user_count=3)
        _, nlos = rician_components(spec)
        assert np.array_equal(nlos[0], nlos[1])
        assert np.array_equal(nlos[0], nlos[2])
        cs = generate_rician(spec)
        assert pairwise_correlation(cs, 0, 1) == 1.0
        assert pairwise_correlation(cs, 1, 2) == 1.0

    def test_k_factor_power_split(self):
        # LOS-to-scattered power ratio over many users matches 8 dB => 6.31
        spec = spec_with(num_users=3000, correlated_user_count=0, k_factor_db=8.0)
        los, nlos = rician_components(spec)
        k = spec.k_linear
        los_power = (k / (k + 1)) * np.sum(np.abs(los) ** 2)
        nlos_power = (1 / (k + 1)) * np.sum(np.abs(nlos) ** 2)
        assert los_power / nlos_power == pytest.approx(6.3096, rel=0.05)

    def test_correlation_monotone_in_rho(self):
        # statistically non-decreasing mean correlation among correlated users
        rng_seeds = range(1000)
        means = []
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            vals = [
                pairwise_correlation(
                    generate_rician(spec_with(rho=rho, k_factor_db=0.0, seed=s)), 0, 1)
                for s in rng_seeds
            ]
            means.append(np.mean(vals))
        for lo, hi in zip(means, means[1:]):
            assert hi >= lo - 0.005
        assert means[-1] > means[0] + 0.2


class TestPairwiseCorrelation:
    def test_orthogonal(self):
        cs = ChannelSet(np.array([[1, 0], [0, 1]], dtype=complex)[:, :, None])
        assert pairwise_correlation(cs, 0, 1) == 0.0

    def test_collinear(self):
        cs = ChannelSet(np.array([[1, 1], [2, 2]], dtype=complex)[:, :, None])
        assert pairwise_correlation(cs, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap(self):
        h = np.array([[1, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)]], dtype=complex)
        cs = ChannelSet(h[:, :, None])
        assert pairwise_correlation(cs, 0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_same_user_rejected(self):
        cs = generate_rician(spec_with())
        with pytest.raises(ValueError):
            pairwise_correlation(cs, 1, 1)

    def test_symmetric_and_bounded(self):
        cs = generate_rician(spec_with(num_users=6, num_subcarriers=3, seed=5))
        for i in range(6):
            for j in range(i + 1, 6):
                c = pairwise_correlation(cs, i, j)
                assert 0.0 <= c <= 1.0
                assert c == pairwise_correlation(cs, j, i)


class TestCorrelationMatrix:
    @pytest.fixture(params=[(10, 4, 1), (24, 4, 8), (16, 8, 3)], ids=str)
    def channels(self, request):
        m, nt, sc = request.param
        return generate_rician(spec_with(num_users=m, num_tx_antennas=nt,
                                         num_subcarriers=sc, rho=0.8,
                                         correlated_user_count=m // 2, seed=m))

    def test_exactly_symmetric(self, channels):
        c = correlation_matrix(channels)
        assert c.shape == (channels.num_users,) * 2
        assert np.array_equal(c, c.T)

    def test_equals_pairwise_correlation(self, channels):
        c = correlation_matrix(channels)
        m = channels.num_users
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert pairwise_correlation(channels, i, j) == c[i, j]

    def test_matches_vdot_reference(self, channels):
        c = correlation_matrix(channels)
        m = channels.num_users
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert abs(c[i, j] - vdot_correlation(channels, i, j)) <= 1e-12
        assert np.all((0.0 <= c) & (c <= 1.0))

    def test_zero_norm_user_gives_zero_without_warning(self):
        h = np.zeros((3, 2, 2), dtype=complex)
        h[0, :, 0] = [1, 1j]
        h[1, :, :] = [[1, 2], [0, 1j]]  # user 2 stays zero; user 0 only on subcarrier 0
        cs = ChannelSet(h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = correlation_matrix(cs)
        assert np.all(c[2] == 0.0) and np.all(c[:, 2] == 0.0)
        assert c[0, 1] == pytest.approx(vdot_correlation(cs, 0, 1), abs=1e-12)
        assert c[0, 1] == pytest.approx(0.5 / math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e-85, 1e-78, 1.0, 1e76, 1e78, 1e95])
    def test_every_scale_up_to_the_channel_bound(self, scale):
        # p_i p_j of the squared norms overflows from about 1e77 and
        # underflows below about 1e-80; the correlations must not move
        rng = np.random.default_rng(4)
        h = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        h[1] = h[0]  # identical users
        h[2:4] = 0.0
        h[2, 0], h[3, 1] = 1.0, 1j  # orthogonal users
        base = correlation_matrix(ChannelSet(h))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = correlation_matrix(ChannelSet(h * scale))
        assert c[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert c[2, 3] == 0.0
        np.testing.assert_allclose(c, base, rtol=1e-12)

    def test_user_out_of_range(self):
        cs = generate_rician(spec_with())
        for i, j in ((0, 4), (-1, 2)):
            with pytest.raises(ValueError, match="out of range"):
                pairwise_correlation(cs, i, j)


def correlation_grid(m):
    """Channel sets of m users over Nt 1-16 and SC 1/2/8: Gaussian entries;
    with users 0 and m - 1 zero (one user when m = 1); and with entries
    set to zero, scaled so their squares are subnormal, or scaled so that
    norm products overflow."""
    rng = np.random.default_rng(m)
    for nt in (1, 2, 3, 4, 8, 16):
        for sc in (1, 2, 8):
            h = rng.standard_normal((m, nt, sc, 2)) @ np.array([1.0, 1j])
            zero_users = h.copy()
            zero_users[[0, m - 1]] = 0.0
            scales = rng.choice([0.0, 1.0, 1e-160, 1e90], size=h.shape, p=[0.3, 0.4, 0.15, 0.15])
            for entries in (h, zero_users, h * scales):
                yield ChannelSet(entries)


class TestCorrelationReference:
    """``correlation_matrix`` against ``reference.loop_correlation_matrix``,
    the per-antenna sum over every (i, j), bit for bit.  The SIMD-free CI
    step runs these too, since numpy's SIMD and scalar loops round
    differently."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 40, 100])
    def test_matches_loop_reference(self, m):
        with np.errstate(over="ignore", under="ignore"):
            for cs in correlation_grid(m):
                got, want = correlation_matrix(cs), loop_correlation_matrix(cs)
                assert got.tobytes() == want.tobytes(), cs.entries.shape


class TestInterchangeFormat:
    def test_identity_payload(self):
        text = "\n".join([
            "chset v1 M=2 NT=2 SC=1",
            "0 0 0 1 0",
            "0 1 0 0 0",
            "1 0 0 0 0",
            "1 1 0 1 0",
        ])
        cs = load_channels(io.StringIO(text))
        assert cs.entries[0, :, 0].tolist() == [1, 0]
        assert cs.entries[1, :, 0].tolist() == [0, 1]

    def test_round_trip_bit_exact(self, tmp_path):
        cs = generate_rician(spec_with(num_users=5, num_subcarriers=3, seed=9))
        path = tmp_path / "chan.txt"
        write_channels(cs, path)
        loaded = load_channels(path)
        assert np.array_equal(cs.entries, loaded.entries)
        # and through an in-memory buffer
        buf = io.StringIO()
        write_channels(cs, buf)
        buf.seek(0)
        assert np.array_equal(load_channels(buf).entries, cs.entries)

    def test_missing_records(self):
        text = "\n".join([
            "chset v1 M=3 NT=1 SC=1",
            "0 0 0 1 0",
            "1 0 0 1 0",
        ])
        with pytest.raises(ChannelFormatError):
            load_channels(io.StringIO(text))

    @pytest.mark.parametrize("header", [
        "chset v2 M=2 NT=2 SC=1",
        "chset v1 M=2 NT=2",
        "chset v1 M=x NT=2 SC=1",
        "chset v1 M=0 NT=2 SC=1",
        "chset v1 M=2 NX=2 SC=1",
        "",
    ])
    def test_bad_header(self, header):
        with pytest.raises(ChannelFormatError):
            load_channels(io.StringIO(header + "\n0 0 0 1 0\n"))

    def test_leading_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "chan.txt"
        cs = generate_rician(spec_with(num_users=5, num_subcarriers=3))
        write_channels(cs, path)
        path.write_text("\n  \n" + path.read_text())
        assert np.array_equal(load_channels(path).entries, cs.entries)

    def test_empty_stream(self):
        with pytest.raises(ChannelFormatError, match="empty channel stream"):
            load_channels(io.StringIO("\n  \n"))

    @pytest.mark.parametrize("record, named", [
        ("0 0 0 1", "expected 5 fields"),
        ("0 0 0 1 0 0", "expected 5 fields"),
        ("0 0 0 1.x 0", "unparsable fields"),
        ("0 0 a 1 0", "unparsable fields"),
    ])
    def test_bad_record(self, record, named):
        with pytest.raises(ChannelFormatError, match=f"line 2: {named}"):
            load_channels(io.StringIO(f"chset v1 M=1 NT=1 SC=1\n{record}\n"))

    def test_text_is_not_a_path(self):
        with pytest.raises(OSError):
            load_channels("chset v1 M=1 NT=1 SC=1\n0 0 0 1 0\n")

    def test_out_of_order_record_named(self):
        text = "\n".join([
            "chset v1 M=2 NT=1 SC=1",
            "1 0 0 1 0",
            "0 0 0 1 0",
        ])
        with pytest.raises(ChannelFormatError, match="line 2"):
            load_channels(io.StringIO(text))

    @pytest.mark.parametrize("record, named", [
        ("0 0 1 x 0.0", "unparsable fields"),
        ("0 0 1 1", "expected 5 fields"),
        ("0 0 2 1 0", r"index \(0,0,2\) out of order"),
        ("0 0 1 inf 0", "non-finite value"),
    ])
    def test_errors_name_the_physical_line(self, record, named):
        # blank lines count: the bad record is line 5 of the stream
        text = f"chset v1 M=1 NT=1 SC=2\n\n0 0 0 1 0\n  \n{record}\n\n"
        with pytest.raises(ChannelFormatError, match=f"^line 5: {named}"):
            load_channels(io.StringIO(text))

    def test_nonfinite_value(self):
        text = "\n".join([
            "chset v1 M=1 NT=1 SC=1",
            "0 0 0 nan 0",
        ])
        with pytest.raises(ChannelFormatError):
            load_channels(io.StringIO(text))
