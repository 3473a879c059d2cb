import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mbstat import FAMILIES, SynthConfig, gen_trades, iter_rolling_stats, make_plan
from mbstat import Window, collect_rolling_stats, mb_corr_prices
from mbstat.errors import ConsistencyError
from mbstat import reports, rolling
from mbstat.market_core import window_layout
from mbstat.reports import RECORD_FIELDS, write_csv, write_json
from mbstat.rolling import (
    JOINT_PRICE_FAMILY,
    JOINT_RETURN_FAMILY,
    PRICE_FAMILY,
    RETURN_FAMILY,
    RETURN_VOL_FAMILY,
    RollingChunk,
)

# ---------------------------------------------------------------------------
# Reference writer: the record-by-record emitter the columnar one replaced,
# kept here only to pin the report bytes.

_REF_SOURCES = (
    "market_value", "frequency_value", "a1", "a2", "h1", "h2", "denominator",
    "cov_cc", "cov_uc", "cov_cu", "cov_ww",
)


def _ref_fmt(x):
    value = float(x)
    out = format(value, ".17g")
    if "inf" in out or "nan" in out:
        raise ConsistencyError(f"refusing to serialize non-finite value {value!r}")
    return out


def _ref_records(plan, chunks):
    for chunk in chunks:
        columns = {
            family: [chunk.families[family][src] for src in _REF_SOURCES]
            for family in plan.families
        }
        for i in range(len(chunk)):
            t_center = float(chunk.t_center[i])
            for family in plan.families:
                yield (
                    t_center, plan.window, plan.alpha, plan.beta, family,
                    *(float(col[i]) for col in columns[family]),
                )


def ref_write_json(out, plan, chunks):
    out.write('{\n"schema_version": %d,\n"records": [\n' % 1)
    first = True
    for rec in _ref_records(plan, chunks):
        if not first:
            out.write(",\n")
        first = False
        out.write(
            '{"t_center": %s, "N": %d, "alpha": %d, "beta": %d, "stat_family": "%s", '
            '"market_value": %s, "frequency_value": %s, "a1": %s, "a2": %s, '
            '"h1": %s, "h2": %s, "denominator": %s, "cov_CC": %s, "cov_UC": %s, '
            '"cov_CU": %s, "cov_UU_or_CoCo_or_UCo": %s}'
            % (_ref_fmt(rec[0]), rec[1], rec[2], rec[3], rec[4],
               *(_ref_fmt(v) for v in rec[5:]))
        )
    out.write("\n]\n}\n")


def ref_write_csv(out, plan, chunks):
    out.write(",".join(RECORD_FIELDS) + "\n")
    for rec in _ref_records(plan, chunks):
        out.write(
            "%s,%d,%d,%d,%s,%s\n"
            % (_ref_fmt(rec[0]), rec[1], rec[2], rec[3], rec[4],
               ",".join(_ref_fmt(v) for v in rec[5:]))
        )


# ---------------------------------------------------------------------------


def _render(writer, plan, chunks):
    """The text ``writer`` writes to a binary stream."""
    buf = io.BytesIO()
    writer(buf, plan, chunks)
    return buf.getvalue().decode("ascii")


def _render_ref(writer, plan, chunks):
    buf = io.StringIO()
    writer(buf, plan, chunks)
    return buf.getvalue()


def _assert_same_text(got: str, expected: str, what: str) -> None:
    """Fail unless ``got == expected``, naming the first character that
    differs: pytest's own diff of two reports takes minutes."""
    if got != expected:
        i = len(os.path.commonprefix([got, expected]))
        near = slice(max(0, i - 40), i + 40)
        pytest.fail(f"{what}: the texts differ from character {i} "
                    f"({len(got)} vs {len(expected)} characters): "
                    f"{got[near]!r} != {expected[near]!r}")


def _assert_same_bytes(plan, chunks):
    for new, ref in ((write_json, ref_write_json), (write_csv, ref_write_csv)):
        expected = _render_ref(ref, plan, chunks)
        got = _render(new, plan, iter(chunks))
        _assert_same_text(got, expected, new.__name__)


@pytest.fixture(scope="module")
def synth_pair():
    s1 = gen_trades(SynthConfig(n_ticks=3000, seed=11, log_price_step_sd=3e-3), "asset1")
    s2 = gen_trades(SynthConfig(n_ticks=3000, seed=12, log_price_step_sd=3e-3), "asset2")
    return s1, s2


def _rolled(pair, families, window=4, stride=7):
    plan = make_plan(*pair, window=window, stride=stride, alpha=1, beta=1,
                     families=families)
    return plan, list(iter_rolling_stats(*pair, plan))


@pytest.fixture(params=[1, 7, reports._BLOCK], ids=lambda n: f"block{n}")
def block(request, monkeypatch):
    """The writers at 1 and 7 positions per block and at the default."""
    monkeypatch.setattr(reports, "_BLOCK", request.param)
    return request.param


@pytest.fixture(scope="module")
def long_chunk(synth_pair):
    """All families at window 256, stride 1: one chunk of 2,744 positions,
    21 whole blocks of 128 and a short one, and its reference texts."""
    plan, chunks = _rolled(synth_pair, FAMILIES, window=256, stride=1)
    assert [len(chunk) for chunk in chunks] == [2744]
    return plan, chunks, {new: _render_ref(ref, plan, chunks)
                          for new, ref in ((write_json, ref_write_json),
                                           (write_csv, ref_write_csv))}


@pytest.mark.usefixtures("block")
class TestByteEquivalence:
    def test_all_families_across_anchor_blocks(self, synth_pair):
        plan, chunks = _rolled(synth_pair, FAMILIES)
        # Chunks of 55 positions: at 7 per block each ends on a short block.
        assert [len(chunk) for chunk in chunks] == [55] * 7 + [43]
        _assert_same_bytes(plan, chunks)

    @pytest.mark.parametrize("writer", [write_json, write_csv])
    def test_a_chunk_of_many_blocks(self, long_chunk, writer):
        plan, chunks, expected = long_chunk
        _assert_same_text(_render(writer, plan, iter(chunks)), expected[writer], writer.__name__)

    def test_price_corr_only(self, synth_pair):
        plan, chunks = _rolled(synth_pair, (PRICE_FAMILY,))
        _assert_same_bytes(plan, chunks)

    def test_return_vol_and_joint_return(self, synth_pair):
        plan, chunks = _rolled(synth_pair, (RETURN_VOL_FAMILY, JOINT_RETURN_FAMILY))
        _assert_same_bytes(plan, chunks)

    def test_edge_values(self, synth_pair):
        plan = make_plan(*synth_pair, window=4, stride=1, alpha=1, beta=1,
                         families=(PRICE_FAMILY, RETURN_FAMILY))
        edges = np.array([-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e17,
                          1 / 3, -1 / 3, 0.1, 123456789.0])
        chunks = []
        for first, scale in ((0, 1.0), (len(edges), -1.0)):
            families = {}
            for k, family in enumerate(plan.families):
                cols = {src: np.roll(edges, j + k) * scale
                        for j, src in enumerate(_REF_SOURCES)}
                # equal under == but not bit-identical: must not share strings
                cols["a1"] = np.zeros_like(edges)
                cols["a2"] = -np.zeros_like(edges)
                families[family] = cols
            chunks.append(RollingChunk(first_position=first,
                                       t_center=edges * scale + 2.5,
                                       families=families))
        _assert_same_bytes(plan, chunks)
        text = _render(write_csv, plan, iter(chunks))
        row = text.splitlines()[1].split(",")
        assert row[7:9] == ["0", "-0"]

    def test_no_positions(self, synth_pair):
        plan, _ = _rolled(synth_pair, (PRICE_FAMILY,))
        _assert_same_bytes(plan, [])


class TestNonFiniteRefusal:
    def _chunk(self, plan, field, value, at, positions=100):
        values = np.linspace(1.0, 2.0, positions)
        families = {
            family: {src: values.copy() for src in _REF_SOURCES}
            for family in plan.families
        }
        families[plan.families[-1]][field][at] = value
        return RollingChunk(first_position=0, t_center=values + 10.0, families=families)

    @pytest.mark.parametrize("writer", [write_json, write_csv])
    @pytest.mark.parametrize(
        "field, value, shown",
        [("cov_uc", float("nan"), r"nan \(return_corr cov_UC\)"),
         ("a2", float("inf"), r"inf \(return_corr a2\)"),
         ("h1", float("-inf"), r"-inf \(return_corr h1\)")],
    )
    def test_refuses_and_names_value(self, synth_pair, writer, field, value, shown):
        plan, _ = _rolled(synth_pair, (PRICE_FAMILY, RETURN_FAMILY))
        chunk = self._chunk(plan, field, value, at=70)
        with pytest.raises(ConsistencyError, match="non-finite value " + shown):
            writer(io.BytesIO(), plan, iter([chunk]))

    @pytest.mark.parametrize("writer", [write_json, write_csv])
    def test_a_later_block_is_named(self, synth_pair, writer):
        """A bad value in the third block is named as in the first, after
        the two blocks before it were written."""
        plan, _ = _rolled(synth_pair, (PRICE_FAMILY, RETURN_FAMILY))
        chunk = self._chunk(plan, "cov_uc", float("nan"), at=2 * reports._BLOCK + 5,
                            positions=3 * reports._BLOCK)
        out = io.BytesIO()
        with pytest.raises(ConsistencyError, match=r"non-finite value nan \(return_corr cov_UC\)"):
            writer(out, plan, iter([chunk]))
        lines = out.getvalue().count(b"\n")
        head = 3 if writer is write_json else 1
        assert lines == head + 2 * reports._BLOCK * len(plan.families) - (writer is write_json)

    @pytest.mark.parametrize("writer", [write_json, write_csv])
    @pytest.mark.parametrize(
        "t_at, a1_at, shown",
        [(40, None, r"nan \(price_corr t_center\)"),
         (None, 40, r"-inf \(price_corr a1\)"),
         (40, 40, r"nan \(price_corr t_center\)"),
         (41, 40, r"-inf \(price_corr a1\)")],
    )
    def test_shared_arrays_name_the_first_record(self, synth_pair, writer, t_at, a1_at, shown):
        """``t_center`` is one array for every family, and ``price_corr``'s
        ``a1`` is ``joint_price_moment``'s: a bad value in either is named
        at its first record."""
        plan, chunks = _rolled(synth_pair, FAMILIES)
        chunk = chunks[0]
        a1 = chunk.families[PRICE_FAMILY]["a1"]
        assert a1 is chunk.families[JOINT_PRICE_FAMILY]["a1"]
        assert plan.families.index(PRICE_FAMILY) < plan.families.index(JOINT_PRICE_FAMILY)
        if t_at is not None:
            chunk.t_center[t_at] = float("nan")
        if a1_at is not None:
            a1[a1_at] = float("-inf")
        with pytest.raises(ConsistencyError, match="non-finite value " + shown):
            writer(io.BytesIO(), plan, iter(chunks))

    def test_a_covariance_past_the_doubles_is_refused_when_reported(self):
        """At prices near 1e155 a window's cov_cc is a difference of products
        past the largest double.  The rolling engine checks only a family's
        values and denominator, so its records hold the inf; a per-window
        report refuses it by name, and a writer refuses it at write time."""
        pair = [gen_trades(SynthConfig(n_ticks=600, seed=seed, price_start=1e155,
                                       log_price_step_sd=1e-5), f"asset{seed}")
                for seed in (1, 2)]
        plan = make_plan(*pair, window=16, families=(PRICE_FAMILY,))
        records = collect_rolling_stats(*pair, plan).families[PRICE_FAMILY]
        assert np.isinf(records["cov_cc"]).any()
        for key in ("market_value", "frequency_value", "a1", "a2", "denominator"):
            assert np.isfinite(records[key]).all(), key
        with pytest.raises(ConsistencyError, match=r"^price_corr: non-finite cov_cc inf$"):
            mb_corr_prices(*(Window(s, 1, 16) for s in pair))
        for writer in (write_json, write_csv):
            with pytest.raises(ConsistencyError, match=r"inf \(price_corr cov_CC\)$"):
                writer(io.BytesIO(), plan, iter_rolling_stats(*pair, plan))


# ---------------------------------------------------------------------------
# Random chunks: values from the whole finite range (both zeros, subnormals,
# exact 17-digit ties, a carry into an 18th digit), repeated within columns
# and shared between columns, over chunks that end inside a block.

_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 999999999999999.875, -1000000000000000.25, 1e-79,
            1.7976931348623157e308, 2.5, -1e16)
_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_SPECIAL))


@st.composite
def _random_chunks(draw, families):
    pool = np.array(draw(st.lists(_VALUES, min_size=1, max_size=12)))
    chunks, first = [], 0
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 70))
        made = []

        def column():
            if made and draw(st.booleans()):
                return made[draw(st.integers(0, len(made) - 1))]
            made.append(pool[draw(arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))])
            return made[-1]

        t_center = column()
        cols = {family: {src: column() for src in _REF_SOURCES} for family in families}
        chunks.append(RollingChunk(first_position=first, t_center=t_center, families=cols))
        first += n
    return chunks


@pytest.mark.usefixtures("block")
class TestRandomChunkBytes:
    # No shrink phase: shrinking a failure here takes minutes, and the first
    # failing chunk set already names the bytes that differ.
    @settings(max_examples=25, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_writers_match_reference(self, synth_pair, data):
        plan = make_plan(*synth_pair, window=4, stride=1, alpha=1, beta=1,
                         families=(PRICE_FAMILY, RETURN_FAMILY))
        _assert_same_bytes(plan, data.draw(_random_chunks(plan.families)))


# ---------------------------------------------------------------------------
# Pinned bytes: the writers' output on a generated pair, as sha256 digests
# of the engine's values since its kernel took the shifted form (the writer
# alone is pinned by the hand-built chunks below).

PINNED_REPORT_DIGESTS = {
    # window 64, stride 3: tick sums (gcd 1)
    (3, "json"): "d13a0e280598fd9dfa30a4f268bf828c42d5d3089f2d590b55cb6943ec6dfd7e",
    (3, "csv"): "673bacd3f1d559daad36db39d7301d68c6e7c3b64333615f83cdaa57339150a2",
    # window 64, stride 16: sums of 16-tick segments
    (16, "json"): "1b2a710c1306d7692e3ac7e964659d54fd23a5120b6d3401bcad10288e1f6318",
    (16, "csv"): "6a61e6fda4d964441b5090061e0113b400cec0f16d8f4a8b680df7e629279576",
}


@pytest.mark.parametrize("fmt, writer, stride, n_ticks", [
    ("json", write_json, 3, 600), ("csv", write_csv, 3, 600),
    ("json", write_json, 16, 2000), ("csv", write_csv, 16, 2000),
], ids=["json-write_json", "csv-write_csv", "json-write_json-stride16", "csv-write_csv-stride16"])
def test_pinned_report_digest(fmt, writer, stride, n_ticks, monkeypatch):
    pair = [gen_trades(SynthConfig(n_ticks=n_ticks, seed=seed), f"asset{k + 1}")
            for k, seed in enumerate((41, 42))]
    _, segment = window_layout(64, stride)
    # Blocks of 100 positions with the plan's own segment: two, the last one short.
    monkeypatch.setattr(rolling, "window_layout", lambda window, stride: (100, segment))
    plan = make_plan(*pair, window=64, stride=stride, alpha=1, beta=1, families=FAMILIES)
    chunks = list(iter_rolling_stats(*pair, plan))
    assert [len(chunk) for chunk in chunks] == [100, plan.n_positions - 100]
    text = _render(writer, plan, chunks)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_DIGESTS[stride, fmt]


# ---------------------------------------------------------------------------
# Pinned bytes over hand-built chunks: both zeros, subnormals, 1e16/1e17,
# values the vectorized %.17g leaves to "%.17g", one array shared by several
# slots, a chunk shorter than a block and blocks across chunk boundaries.
# Digests taken before the record layout was last rewritten, so that they
# pin the writer apart from the formatter's digits.

_HAND_VALUES = (0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e16, 1e17, -1e17,
                9999999999999998.0, 999999999999999.875, 1e-79, 1e-200, 1e300,
                -1.7976931348623157e308, 0.1, -1 / 3, 123456789.0, 2.5, 1e-5)
PINNED_HAND_BUILT_DIGESTS = {
    "json": "db91daaa5e0aeb5d33c12fc67177b93e59e7e78ba1c76d49e1aa198ef51f8e36",
    "csv": "5a22fa5046c4b0a818d4faa2cf410aa46f70db97f5e216681eee52eadb08b731",
}


def _hand_built_chunks(plan):
    rng = np.random.default_rng(2016)
    pool = np.concatenate([_HAND_VALUES, rng.standard_normal(14) * 10.0 ** rng.integers(-9, 9, 14)])
    chunks, first = [], 0
    for n in (5, 45, 40, 32):
        shared = pool[rng.integers(0, len(pool), n)]
        families = {}
        for k, family in enumerate(plan.families):
            cols = {src: pool[rng.integers(0, len(pool), n)] for src in _REF_SOURCES}
            for src in ("a1", "h2", "cov_ww"):
                cols[src] = shared
            cols["denominator"] = np.zeros(n) if k % 2 else -np.zeros(n)
            families[family] = cols
        t_center = shared if n == 40 else first + np.arange(n) + 0.5
        chunks.append(RollingChunk(first_position=first, t_center=t_center, families=families))
        first += n
    return chunks


@pytest.mark.parametrize("fmt, writer", [("json", write_json), ("csv", write_csv)])
def test_pinned_hand_built_digest(synth_pair, fmt, writer):
    plan = make_plan(*synth_pair, window=4, stride=1, alpha=1, beta=1,
                     families=(PRICE_FAMILY, RETURN_FAMILY, RETURN_VOL_FAMILY))
    chunks = _hand_built_chunks(plan)
    _assert_same_bytes(plan, chunks)
    text = _render(writer, plan, iter(chunks))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_HAND_BUILT_DIGESTS[fmt]
