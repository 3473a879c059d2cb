import io

import numpy as np
import pytest

from mbstat import FAMILIES, SynthConfig, gen_trades, iter_rolling_stats, make_plan
from mbstat.errors import ConsistencyError
from mbstat.reports import RECORD_FIELDS, write_csv, write_json
from mbstat.rolling import (
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
    buf = io.StringIO()
    writer(buf, plan, chunks)
    return buf.getvalue()


def _assert_same_bytes(plan, chunks):
    for new, ref in ((write_json, ref_write_json), (write_csv, ref_write_csv)):
        expected = _render(ref, plan, chunks)
        got = _render(new, plan, iter(chunks))
        assert got.encode("utf-8") == expected.encode("utf-8"), new.__name__


@pytest.fixture(scope="module")
def synth_pair():
    s1 = gen_trades(SynthConfig(n_ticks=3000, seed=11, log_price_step_sd=3e-3), "asset1")
    s2 = gen_trades(SynthConfig(n_ticks=3000, seed=12, log_price_step_sd=3e-3), "asset2")
    return s1, s2


def _rolled(pair, families, window=4, stride=7):
    plan = make_plan(*pair, window=window, stride=stride, alpha=1, beta=1,
                     families=families)
    return plan, list(iter_rolling_stats(*pair, plan))


class TestByteEquivalence:
    def test_all_families_across_anchor_blocks(self, synth_pair):
        plan, chunks = _rolled(synth_pair, FAMILIES)
        assert len(chunks) >= 3
        assert len(chunks[-1]) % 64 != 0
        _assert_same_bytes(plan, chunks)

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
    def _chunk(self, plan, field, value, at):
        values = np.linspace(1.0, 2.0, 100)
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
            writer(io.StringIO(), plan, iter([chunk]))
