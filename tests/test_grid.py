from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stealthgrid import (
    GridCase,
    MatpowerParseError,
    MeasurementSelection,
    build_dc_jacobian,
    load_matrix_csv,
    parse_matpower_case,
)
from stealthgrid.grid import _branch_flow_rows


# ---------------------------------------------------------------------------
# parse_matpower_case
# ---------------------------------------------------------------------------


def test_parse_minimal_two_bus_case(two_bus_text):
    case = parse_matpower_case(two_bus_text)
    assert case.n_buses == 2
    assert len(case.branches) == 1
    assert case.slack_bus == 1
    assert case.base_mva == 100.0
    assert case.branches[0].reactance == 0.5


def test_parse_bundled_ieee30(ieee30_case):
    assert ieee30_case.n_buses == 30
    assert len(ieee30_case.in_service_branches) == 41
    assert ieee30_case.slack_bus == 1


def test_parse_rejects_multiple_slack_buses(two_bus_text):
    text = two_bus_text.replace("\t2\t1\t10", "\t2\t3\t10")
    with pytest.raises(MatpowerParseError, match="multiple slack"):
        parse_matpower_case(text)


def test_parse_rejects_missing_slack(two_bus_text):
    text = two_bus_text.replace("\t1\t3\t0", "\t1\t1\t0")
    with pytest.raises(MatpowerParseError, match="no slack"):
        parse_matpower_case(text)


def test_parse_rejects_missing_tables():
    with pytest.raises(MatpowerParseError, match="missing table 'bus'"):
        parse_matpower_case("mpc.branch = [\n1 2 0 0.5;\n];\n")
    with pytest.raises(MatpowerParseError, match="missing table 'branch'"):
        parse_matpower_case("mpc.bus = [\n1 3 0 0;\n];\n")


def test_parse_rejects_duplicate_bus_ids(two_bus_text):
    text = two_bus_text.replace("\t2\t1\t10", "\t1\t1\t10")
    with pytest.raises(MatpowerParseError, match="duplicate bus ids"):
        parse_matpower_case(text)


def test_parse_reports_line_and_column_for_bad_number():
    text = "mpc.bus = [\n1 3;\n2 oops;\n];\nmpc.branch = [\n1 2 0.0 0.5;\n];\n"
    with pytest.raises(MatpowerParseError, match=r"line 3, column 3"):
        parse_matpower_case(text)


MUTANTS = st.one_of(
    st.sampled_from(
        ["Inf", "-Inf", "nan", "1e400", "2.5", "-1", "0", "3", "abc", "", ";", "]", "[", "%", "\n"]
    ),
    st.text(alphabet="0123456789.eE+-;[]%= \t\nInfa", max_size=8),
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_parse_mutated_case_returns_a_case_or_a_parse_error(two_bus_text, data):
    parts = re.split(r"(\s+)", two_bus_text)
    for _ in range(data.draw(st.integers(1, 3))):
        parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(MUTANTS)
    try:
        assert isinstance(parse_matpower_case("".join(parts)), GridCase)
    except MatpowerParseError:
        pass


def test_parse_skips_comments_and_other_tables(two_bus_text):
    text = two_bus_text.replace(
        "mpc.branch", "mpc.gen = [\n1 0 0 10 -10 1 100 1 50 0;\n];\n% comment\nmpc.branch"
    )
    case = parse_matpower_case(text)
    assert case.n_buses == 2


def test_parse_rejects_zero_reactance_in_service(two_bus_text):
    text = two_bus_text.replace("0.01\t0.5", "0.01\t0.0")
    with pytest.raises(MatpowerParseError, match="zero reactance"):
        parse_matpower_case(text)


def test_out_of_service_branch_is_kept_but_not_measured(two_bus_text):
    # duplicate the branch row, switch the copy off
    text = two_bus_text.replace(
        "\t1\t2\t0.01\t0.5\t0\t100\t100\t100\t0\t0\t1\t-360\t360;",
        "\t1\t2\t0.01\t0.5\t0\t100\t100\t100\t0\t0\t1\t-360\t360;\n"
        "\t1\t2\t0.01\t0.25\t0\t100\t100\t100\t0\t0\t0\t-360\t360;",
    )
    case = parse_matpower_case(text)
    assert len(case.branches) == 2
    assert len(case.in_service_branches) == 1


# ---------------------------------------------------------------------------
# build_dc_jacobian
# ---------------------------------------------------------------------------


def test_two_bus_from_flows_only(two_bus_text):
    case = parse_matpower_case(two_bus_text)
    model = build_dc_jacobian(
        case, MeasurementSelection(include_from_flows=True, include_injections=False)
    )
    # b = 1/0.5 = 2; slack column (bus 1) removed
    assert model.h.shape == (1, 1)
    assert model.h[0, 0] == pytest.approx(-2.0)


def test_two_bus_flows_plus_injections(two_bus_text):
    case = parse_matpower_case(two_bus_text)
    model = build_dc_jacobian(case)
    assert model.h.shape == (3, 1)
    np.testing.assert_allclose(model.h[:, 0], [-2.0, -2.0, 2.0])
    assert model.labels == ("pf:1-2", "pinj:1", "pinj:2")


def test_ieee30_default_dimensions(ieee30_case):
    model = build_dc_jacobian(ieee30_case)
    assert model.n_states == 29
    assert model.n_measurements == 71  # 41 from-flows + 30 injections
    assert np.linalg.matrix_rank(model.h) == 29


def test_empty_measurement_selection_rejected():
    with pytest.raises(ValueError, match="at least one"):
        MeasurementSelection(
            include_from_flows=False, include_to_flows=False, include_injections=False
        )


@pytest.mark.parametrize("flag", ["include_from_flows", "include_to_flows", "include_injections"])
@pytest.mark.parametrize("value", ["no", 1, 0, None, np.True_], ids=repr)
def test_measurement_selection_rejects_flags_that_are_not_bools(ieee30_case, flag, value):
    # a truthy "no" used to select the to-side flows: a 112-row H for 71
    with pytest.raises(ValueError, match=re.escape(f"{flag} must be a bool, got {value!r}")):
        build_dc_jacobian(ieee30_case, MeasurementSelection(**{flag: value}))


def test_flow_rows_sum_to_zero_before_slack_deletion(ieee30_case):
    rows = _branch_flow_rows(ieee30_case)
    np.testing.assert_allclose(rows.sum(axis=1), 0.0, atol=1e-12)


def test_injection_rows_are_signed_sums_of_incident_flows(ieee30_case):
    full = _branch_flow_rows(ieee30_case)
    model = build_dc_jacobian(ieee30_case)
    branches = ieee30_case.in_service_branches
    index = {bus.id: pos for pos, bus in enumerate(ieee30_case.buses)}
    flows = model.h[: len(branches)]
    injections = model.h[len(branches) :]
    expected = np.zeros_like(injections)
    for r, br in enumerate(branches):
        expected[index[br.from_bus]] += flows[r]
        expected[index[br.to_bus]] -= flows[r]
    np.testing.assert_array_equal(injections, expected)
    assert full.shape == (len(branches), 30)


def test_to_flows_are_negated_from_flows(ieee30_case):
    model = build_dc_jacobian(
        ieee30_case,
        MeasurementSelection(
            include_from_flows=True, include_to_flows=True, include_injections=False
        ),
    )
    n_br = len(ieee30_case.in_service_branches)
    np.testing.assert_array_equal(model.h[n_br:], -model.h[:n_br])


def test_pipeline_is_deterministic(two_bus_text):
    h1 = build_dc_jacobian(parse_matpower_case(two_bus_text)).h
    h2 = build_dc_jacobian(parse_matpower_case(two_bus_text)).h
    assert h1.tobytes() == h2.tobytes()


# ---------------------------------------------------------------------------
# load_matrix_csv
# ---------------------------------------------------------------------------


def test_load_matrix_csv_identity(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,0\n0,1\n")
    np.testing.assert_array_equal(load_matrix_csv(path), np.eye(2))


def test_load_matrix_csv_single_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n")
    assert load_matrix_csv(path).shape == (1, 3)


def test_load_matrix_csv_ragged(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="ragged row at line 2"):
        load_matrix_csv(path)


def test_load_matrix_csv_non_numeric(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ValueError, match="line 2, column 2"):
        load_matrix_csv(path)


@pytest.mark.parametrize("cell", ["2_0", "1_000"])
def test_load_matrix_csv_rejects_underscored_numbers(tmp_path, cell):
    # float() reads these as 20 and 1000; case files reject them, and so do CSVs
    path = tmp_path / "m.csv"
    path.write_text(f"1,2\n3,{cell}\n")
    with pytest.raises(ValueError, match=f"cell '{cell}' at line 2, column 2"):
        load_matrix_csv(path)
