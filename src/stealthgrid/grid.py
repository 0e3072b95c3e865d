"""Network ingestion and the linearized DC measurement matrix.

Parses the ``bus``/``branch`` tables of a MATPOWER-style case file into a
:class:`GridCase` and builds the DC sensitivity matrix H that maps bus
voltage angles (slack removed) to branch-flow and bus-injection
measurements.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "Bus",
    "Branch",
    "GridCase",
    "MeasurementSelection",
    "MeasurementModel",
    "MatpowerParseError",
    "parse_matpower_case",
    "load_matpower_case",
    "load_ieee30",
    "build_dc_jacobian",
    "load_matrix_csv",
    "load_measurement_matrix",
]

#: Case path naming the packaged IEEE 30-bus system.
BUNDLED_IEEE30 = "bundled:ieee30"


class MatpowerParseError(ValueError):
    """Structured parse error carrying the offending line/column (1-based)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True)
class Bus:
    id: int
    is_slack: bool


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    reactance: float  # series reactance, p.u.
    in_service: bool = True


@dataclass(frozen=True)
class GridCase:
    """Parsed network topology.

    Invariants (checked on construction): exactly one slack bus, unique bus
    ids, branch endpoints reference existing buses, and every in-service
    branch has nonzero reactance.
    """

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate bus ids: {dup}")
        n_slack = sum(b.is_slack for b in self.buses)
        if n_slack == 0:
            raise ValueError("no slack bus")
        if n_slack > 1:
            raise ValueError("multiple slack buses")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise ValueError(
                    f"branch {br.from_bus}-{br.to_bus} references an unknown bus"
                )
            if br.in_service and br.reactance == 0.0:
                raise ValueError(
                    f"in-service branch {br.from_bus}-{br.to_bus} has zero reactance"
                )

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def slack_bus(self) -> int:
        return next(b.id for b in self.buses if b.is_slack)

    @property
    def in_service_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.branches if br.in_service)


@dataclass(frozen=True)
class MeasurementSelection:
    """Which measurement classes compose the DC measurement matrix.

    The default (all from-side branch flows plus all bus injections) gives
    M = 71 rows on the bundled 30-bus system.  Each flag must be a ``bool``
    and at least one must be true; anything else raises ``ValueError``.
    """

    include_from_flows: bool = True
    include_to_flows: bool = False
    include_injections: bool = True

    def __post_init__(self) -> None:
        for flag in fields(self):
            value = getattr(self, flag.name)
            if not isinstance(value, bool):
                raise ValueError(f"{flag.name} must be a bool, got {value!r}")
        if not any(getattr(self, flag.name) for flag in fields(self)):
            raise ValueError("measurement selection is empty: select at least one class")


@dataclass(frozen=True)
class MeasurementModel:
    """Linearized measurement model y = H x + noise.

    ``h`` is M x N with N the number of non-slack bus angles.
    """

    h: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 2:
            raise ValueError(f"h must be a 2-D matrix, got ndim={h.ndim}")
        object.__setattr__(self, "h", h)
        if len(self.labels) != h.shape[0]:
            raise ValueError("one label per measurement row is required")

    @property
    def n_measurements(self) -> int:
        return int(self.h.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.h.shape[1])


# ---------------------------------------------------------------------------
# MATPOWER-style parsing
# ---------------------------------------------------------------------------

_TABLE_HEADER = re.compile(r"^\s*mpc\.(\w+)\s*=\s*\[")
_SCALAR_FIELD = re.compile(r"^\s*mpc\.(\w+)\s*=\s*([^;%\[]+);")
#: A plain MATPOWER number: decimal digits with an optional exponent, or Inf / NaN.
#: Python's ``float`` alone would also take ``2_0`` (as 20) or ``infinity``.
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|Inf|inf|NaN|nan)")


def _tokenize_numbers(segment: str, line_no: int, col_offset: int) -> list[float]:
    values = []
    for m in re.finditer(r"\S+", segment):
        tok = m.group(0)
        if not _NUMBER.fullmatch(tok):
            raise MatpowerParseError(
                f"non-numeric field {tok!r}", line=line_no, column=col_offset + m.start() + 1
            )
        values.append(float(tok))
    return values


def _integer(value: float, field: str, line_no: int) -> int:
    """``value`` as an int; a parse error at ``line_no`` unless it is finite and integral."""
    if not value.is_integer():
        raise MatpowerParseError(f"{field} must be an integer, got {value}", line_no)
    return int(value)


def parse_matpower_case(text: str) -> GridCase:
    """Parse a MATPOWER-style case into a :class:`GridCase`.

    Supported subset: ``mpc.baseMVA = <num>;`` and the numeric matrices
    ``mpc.bus = [...];`` / ``mpc.branch = [...];`` with ``%`` comments and
    rows terminated by ``;`` or newline.  All other tables are skipped.
    """
    tables: dict[str, list[tuple[int, list[float]]]] = {}
    base_mva = 100.0
    current: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        if current is None:
            m = _SCALAR_FIELD.match(line)
            if m and m.group(1) == "baseMVA":
                value = m.group(2).strip()
                if not _NUMBER.fullmatch(value):
                    raise MatpowerParseError(f"baseMVA must be a number, got {value!r}", line_no)
                base_mva = float(value)
                if not math.isfinite(base_mva):
                    raise MatpowerParseError(f"baseMVA must be finite, got {base_mva}", line_no)
                continue
            m = _TABLE_HEADER.match(line)
            if m:
                current = m.group(1)
                tables.setdefault(current, [])
                line = line[m.end():]
            else:
                continue
        # inside a table: rows end at ';' or end of line; ']' closes it
        closed = False
        bracket = line.find("]")
        if bracket >= 0:
            line, closed = line[:bracket], True
        offset = 0
        for segment in line.split(";"):
            row = _tokenize_numbers(segment, line_no, offset)
            if row:
                tables[current].append((line_no, row))
            offset += len(segment) + 1
        if closed:
            current = None

    if current is not None:
        raise MatpowerParseError(f"table {current!r} is not closed with ']'")
    for required in ("bus", "branch"):
        if required not in tables or not tables[required]:
            raise MatpowerParseError(f"missing table {required!r}")

    buses = []
    for line_no, row in tables["bus"]:
        if len(row) < 2:
            raise MatpowerParseError("bus row needs at least id and type columns", line=line_no)
        bus_type = _integer(row[1], "bus type", line_no)
        buses.append(Bus(id=_integer(row[0], "bus id", line_no), is_slack=bus_type == 3))

    branches = []
    for line_no, row in tables["branch"]:
        if len(row) < 4:
            raise MatpowerParseError(
                "branch row needs at least from/to/r/x columns", line=line_no
            )
        if not math.isfinite(row[3]):
            raise MatpowerParseError(f"branch reactance must be finite, got {row[3]}", line_no)
        status = _integer(row[10], "branch status", line_no) if len(row) > 10 else 1
        if status not in (0, 1):
            raise MatpowerParseError(f"branch status must be 0 or 1, got {status}", line_no)
        branches.append(
            Branch(
                from_bus=_integer(row[0], "branch from bus", line_no),
                to_bus=_integer(row[1], "branch to bus", line_no),
                reactance=float(row[3]),
                in_service=status == 1,
            )
        )

    try:
        return GridCase(base_mva=base_mva, buses=tuple(buses), branches=tuple(branches))
    except ValueError as exc:
        raise MatpowerParseError(str(exc)) from None


def load_matpower_case(path: str | Path) -> GridCase:
    """Read and parse a MATPOWER-style case file; ``"bundled:ieee30"`` is the packaged system."""
    if str(path) == BUNDLED_IEEE30:
        return load_ieee30()
    return parse_matpower_case(Path(path).read_text(encoding="utf-8"))


def load_ieee30() -> GridCase:
    """Return the bundled IEEE 30-bus test system."""
    text = resources.files("stealthgrid.data").joinpath("ieee30.m").read_text(encoding="utf-8")
    return parse_matpower_case(text)


# ---------------------------------------------------------------------------
# DC measurement matrix
# ---------------------------------------------------------------------------


def _branch_flow_rows(case: GridCase) -> np.ndarray:
    """Full from-side flow rows (one per in-service branch, all bus columns).

    Row for branch (i, j) is +b at column i and -b at column j with
    b = 1/x, so each row sums to zero: a DC flow depends only on angle
    differences.
    """
    index = {bus.id: pos for pos, bus in enumerate(case.buses)}
    rows = np.zeros((len(case.in_service_branches), case.n_buses))
    for r, br in enumerate(case.in_service_branches):
        b = 1.0 / br.reactance
        rows[r, index[br.from_bus]] += b
        rows[r, index[br.to_bus]] -= b
    return rows


def build_dc_jacobian(
    case: GridCase, selection: MeasurementSelection | None = None
) -> MeasurementModel:
    """Build the DC measurement matrix for the selected measurement classes.

    Row order: from-side flows (branch order), to-side flows, injections
    (bus order).  The slack-bus angle column is removed, so N = buses - 1.
    Injection rows are exactly the signed sums of the incident flow rows.

    Parameters
    ----------
    case:
        Validated grid description.
    selection:
        Measurement classes to include; defaults to from-flows plus
        injections.

    Returns
    -------
    MeasurementModel
    """
    selection = selection or MeasurementSelection()
    flows = _branch_flow_rows(case)
    index = {bus.id: pos for pos, bus in enumerate(case.buses)}

    blocks: list[np.ndarray] = []
    labels: list[str] = []
    if selection.include_from_flows:
        blocks.append(flows)
        labels += [f"pf:{br.from_bus}-{br.to_bus}" for br in case.in_service_branches]
    if selection.include_to_flows:
        blocks.append(-flows)
        labels += [f"pt:{br.from_bus}-{br.to_bus}" for br in case.in_service_branches]
    if selection.include_injections:
        inj = np.zeros((case.n_buses, case.n_buses))
        for r, br in enumerate(case.in_service_branches):
            inj[index[br.from_bus]] += flows[r]
            inj[index[br.to_bus]] -= flows[r]
        blocks.append(inj)
        labels += [f"pinj:{bus.id}" for bus in case.buses]

    full = np.vstack(blocks)
    slack_pos = index[case.slack_bus]
    h = np.delete(full, slack_pos, axis=1)
    return MeasurementModel(h=h, labels=tuple(labels))


# ---------------------------------------------------------------------------
# CSV matrices
# ---------------------------------------------------------------------------


def load_matrix_csv(path: str | Path) -> np.ndarray:
    """Load a rectangular numeric CSV (comma-separated, no header) as a matrix.

    Cells follow the number grammar of case files (so ``2_0`` is rejected).
    Raises ``ValueError`` on ragged rows or non-numeric or non-finite cells,
    reporting the 1-based line and column.
    """
    rows: list[list[float]] = []
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        cells = raw.split(",")
        parsed = []
        for col_no, cell in enumerate(cells, start=1):
            text = cell.strip()
            parsed.append(float(text) if _NUMBER.fullmatch(text) else math.nan)
            if not math.isfinite(parsed[-1]):
                raise ValueError(
                    f"cell {text!r} at line {line_no}, column {col_no} is not a finite "
                    "number"
                )
        if rows and len(parsed) != len(rows[0]):
            raise ValueError(
                f"ragged row at line {line_no}: expected {len(rows[0])} cells, got {len(parsed)}"
            )
        rows.append(parsed)
    if not rows:
        raise ValueError("empty matrix file")
    return np.asarray(rows, dtype=float)


def load_measurement_matrix(
    case_path: str | None, h_path: str | None, selection: MeasurementSelection
) -> np.ndarray:
    """H from the headerless CSV at ``h_path`` if given, else from the case at ``case_path``.

    ``selection`` picks the measurement rows built from a case.
    """
    if h_path is not None:
        return load_matrix_csv(h_path)
    return build_dc_jacobian(load_matpower_case(case_path), selection).h
