"""Level-scheme data model: levels, spontaneous decays, and laser drives.

A scheme is loaded from a small sectioned text format and is immutable once
constructed, so a single instance can be shared between solvers and the
command line. The bundled ``yb174_plus`` scheme describes the nine-level
ladder used to drive a trapped Yb+ ion to Yb2+ in three resonant steps; the
same container also serves reduced test schemes.

File format (``#`` starts a comment, fields are whitespace separated and
quoted as by a POSIX shell, ``-`` marks an absent optional value)::

    [SCHEME]
    ionization_limit_cm1  98207.0

    [LEVELS]
    # label  configuration  J  energy_cm1  lifetime_s
    6s12  "[Xe]4f14 6s"  0.5  0.0  -

    [DECAYS]
    # upper  lower  branching_ratio

    [DRIVES]
    # upper  lower  wavelength_nm  power_w  waist_m  saturation  detuning_hz  chopped

_SECTIONS lists each section's columns once; load_scheme and serialize
both read it. A drive carries either an explicit saturation parameter or a
power/waist pair, never both; LevelScheme.with_drive owns that rule. Declared
drive wavelengths must agree with the level energy gap to 0.1 percent.
A [SCHEME] key, a level label, a decay channel and a drive pair may each
appear once; decays and drives share one pair check, and a record's name
("decay U->L", "drive U<->L") prefixes every refusal about it.
Scheme, series and scan-curve files are read by walk_lines, which alone
prefixes "line N: " to the refusal of a line; no parser takes a line.
"""

from __future__ import annotations

import dataclasses
import math
import shlex
from dataclasses import dataclass
from pathlib import Path

from .constants import vacuum_wavelength_nm
from .errors import SchemeError, check

__all__ = [
    "Level",
    "DecayChannel",
    "LaserDrive",
    "LevelScheme",
    "load_scheme",
    "load_scheme_file",
    "bundled_scheme_path",
    "load_bundled_scheme",
    "serialize",
    "validate_scheme",
]

# Maximum relative mismatch between a declared drive wavelength and the
# wavelength implied by the level energies.
WAVELENGTH_TOLERANCE = 1e-3

# Allowed slack on a branching-ratio sum before the scheme is rejected.
BRANCHING_SUM_SLACK = 1e-9

DATA_DIR = Path(__file__).with_name("data")  # bundled schemes and tables


@dataclass(frozen=True)
class Level:
    """One electronic level: spectroscopic bookkeeping plus lifetime."""

    label: str
    configuration: str
    j: float
    energy_cm1: float
    lifetime_s: float | None = None

    def __post_init__(self):
        if not self.label:
            raise SchemeError("level label must be non-empty")
        # serialize writes a level as one line, so a line break would split it
        for what, text in (("level label", self.label),
                           (f"level {self.label}: configuration", self.configuration)):
            if "".join(text.splitlines()) != text:
                raise SchemeError(f"{what} must hold no line break, got {text!r}")
        check(f"level {self.label}: J", self.j, "[0, inf)")
        check(f"level {self.label}: energy_cm1", self.energy_cm1, "[0, inf)")
        if self.lifetime_s is not None:
            check(f"level {self.label}: lifetime_s", self.lifetime_s, "(0, inf)")


@dataclass(frozen=True)
class DecayChannel:
    """Spontaneous decay upper -> lower with a branching ratio in (0, 1]."""

    upper: str
    lower: str
    branching_ratio: float

    def __post_init__(self):
        check(f"{self.name}: branching ratio", self.branching_ratio, "(0, 1]")
        if self.upper == self.lower:
            raise SchemeError(f"{self.name}: levels must differ")

    @property
    def name(self) -> str:
        return f"decay {self.upper}->{self.lower}"


@dataclass(frozen=True)
class LaserDrive:
    """A narrow-band laser resonantly coupling lower <-> upper.

    The strength is given either as a saturation parameter or as a
    power/waist pair (converted at rate-matrix build time). ``chopped``
    marks drives that participate in the alternating exposure sequence.
    """

    upper: str
    lower: str
    wavelength_nm: float
    power_w: float | None = None
    waist_m: float | None = None
    saturation: float | None = None
    detuning_hz: float = 0.0
    chopped: bool = False

    def __post_init__(self):
        prefix = self.name
        if self.upper == self.lower:
            raise SchemeError(f"{prefix}: levels must differ")
        for name, interval in (("wavelength_nm", "(0, inf)"), ("power_w", "[0, inf)"),
                               ("waist_m", "(0, inf)"), ("saturation", "[0, inf)"),
                               ("detuning_hz", "finite")):
            value = getattr(self, name)
            if value is not None:
                check(f"{prefix}: {name}", value, interval)
        has_power = self.power_w is not None or self.waist_m is not None
        has_sat = self.saturation is not None
        if has_sat and has_power:
            raise SchemeError(f"{prefix}: give saturation or power/waist, not both")
        if not has_sat and not (self.power_w is not None and self.waist_m is not None):
            raise SchemeError(f"{prefix}: needs saturation or a complete "
                              "power/waist pair")

    @property
    def name(self) -> str:
        return f"drive {self.upper}<->{self.lower}"


@dataclass(frozen=True)
class LevelScheme:
    """Immutable container for levels, decays, and drives.

    Lookup helpers raise SchemeError for unknown labels so that a typo in
    user input surfaces with the offending name rather than a KeyError.
    """

    levels: tuple[Level, ...]
    decays: tuple[DecayChannel, ...] = ()
    drives: tuple[LaserDrive, ...] = ()
    ionization_limit_cm1: float | None = None

    def __post_init__(self):
        _check_consistency(self)

    # -- lookups ---------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    def level(self, label: str) -> Level:
        for lv in self.levels:
            if lv.label == label:
                return lv
        raise SchemeError(f"unknown level label: {label}")

    def energy(self, label: str) -> float:
        return self.level(label).energy_cm1

    def lifetime(self, label: str) -> float | None:
        return self.level(label).lifetime_s

    def decays_from(self, upper: str) -> tuple[DecayChannel, ...]:
        self.level(upper)
        return tuple(d for d in self.decays if d.upper == upper)

    def drive(self, upper: str, lower: str) -> LaserDrive:
        for dr in self.drives:
            if dr.upper == upper and dr.lower == lower:
                return dr
        raise SchemeError(f"no drive {upper}<->{lower} in scheme")

    # -- immutable editing -----------------------------------------------

    def with_drive(self, upper: str, lower: str, **changes) -> "LevelScheme":
        """Copy with one drive's fields replaced; setting saturation clears
        power_w and waist_m, and setting either of those clears saturation."""
        target = self.drive(upper, lower)
        cleared = {"power_w": None, "waist_m": None} if "saturation" in changes else {}
        if "power_w" in changes or "waist_m" in changes:
            cleared["saturation"] = None
        new = dataclasses.replace(target, **{**cleared, **changes})
        drives = tuple(new if d is target else d for d in self.drives)
        return dataclasses.replace(self, drives=drives)

    def with_level(self, label: str, **changes) -> "LevelScheme":
        """Copy of the scheme with one level's fields replaced."""
        target = self.level(label)
        new = dataclasses.replace(target, **changes)
        levels = tuple(new if lv is target else lv for lv in self.levels)
        return dataclasses.replace(self, levels=levels)

    def with_all_drives_saturated(self, saturation: float) -> "LevelScheme":
        """Copy with every drive forced to the given saturation parameter."""
        drives = tuple(
            dataclasses.replace(
                d, saturation=saturation, power_w=None, waist_m=None
            )
            for d in self.drives
        )
        return dataclasses.replace(self, drives=drives)


def _check_consistency(scheme: LevelScheme) -> tuple[dict, list]:
    """Refuse a scheme that no solver can use; else return the branching
    sum of each decaying level, in level order, and (drive, wavelength in
    nm implied by its energy gap) for each drive."""
    if not scheme.levels:
        raise SchemeError("scheme has no levels")
    by_label: dict[str, Level] = {}
    for lv in scheme.levels:
        if lv.label in by_label:
            raise SchemeError(f"duplicate level label: {lv.label}")
        by_label[lv.label] = lv
    ground = min(lv.energy_cm1 for lv in scheme.levels)
    if ground != 0.0:
        raise SchemeError("lowest level must sit at energy exactly 0")

    sums: dict[str, float] = {}
    for d, _ in _checked_pairs(scheme.decays, by_label, "decay channel"):
        sums[d.upper] = sums.get(d.upper, 0.0) + d.branching_ratio
    for label, total in sums.items():
        if total > 1.0 + BRANCHING_SUM_SLACK:
            raise SchemeError(
                f"level {label}: branching ratios sum to {float(total)} > 1"
            )

    wavelengths: list[tuple[LaserDrive, float]] = []
    for dr, gap in _checked_pairs(scheme.drives, by_label, "drive"):
        implied = vacuum_wavelength_nm(gap)
        mismatch = abs(implied - dr.wavelength_nm) / dr.wavelength_nm
        if mismatch > WAVELENGTH_TOLERANCE:
            raise SchemeError(
                f"{dr.name}: declared wavelength "
                f"{dr.wavelength_nm} nm differs from energy gap "
                f"({implied:.6g} nm) by {mismatch:.2e} (limit {WAVELENGTH_TOLERANCE})"
            )
        wavelengths.append((dr, implied))
    return {label: sums[label] for label in by_label if label in sums}, wavelengths


def _checked_pairs(records, by_label: dict, noun: str):
    """Yield (record, upper minus lower energy in cm^-1) for each decay or
    drive, refusing an unknown label, an upper level not above the lower
    one, and a pair given twice ("duplicate NOUN U->L")."""
    seen: set[tuple[str, str]] = set()
    for r in records:
        upper, lower = by_label.get(r.upper), by_label.get(r.lower)
        if upper is None or lower is None:
            unknown = r.upper if upper is None else r.lower
            raise SchemeError(f"{r.name}: unknown level label: {unknown}")
        gap = upper.energy_cm1 - lower.energy_cm1
        if gap <= 0:
            raise SchemeError(f"{r.name}: upper level is not above lower")
        if (r.upper, r.lower) in seen:
            raise SchemeError(f"duplicate {noun} {r.name.partition(' ')[2]}")
        seen.add((r.upper, r.lower))
        yield r, gap


# ---------------------------------------------------------------------------
# parsing and serialization


def walk_lines(text: str, parse_line) -> None:
    """Call parse_line on the stripped text of each non-blank, non-# line.

    The walk is the one owner of line numbers: a SchemeError raised while
    a line is handled leaves as "line N: MESSAGE", N one-based.
    """
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                parse_line(line)
            except SchemeError as exc:
                raise SchemeError(f"line {n}: {exc}") from None


def read_text(path: str | Path) -> str:
    """A data file's text; a file that is not UTF-8 raises SchemeError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemeError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def parse_number(token: str, what: str, kind: type = float):
    """One field as a finite float (an int with kind=int), else SchemeError."""
    try:
        value = kind(token)
        if -math.inf < float(value) < math.inf:
            return value
    except (ValueError, OverflowError):  # OverflowError: an int beyond any float
        pass
    rule = "an integer in the floating-point range" if kind is int else "finite"
    raise SchemeError(f"{what} must be {rule}, got {token!r}")


def _opt_float(token: str, what: str) -> float | None:
    return None if token == "-" else parse_number(token, what)


def _req_float(token: str, what: str) -> float:
    if token == "-":
        raise SchemeError(f"{what} is required")
    return parse_number(token, what)


def _req_bool(token: str, what: str) -> bool:
    low = token.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise SchemeError(f"bad {what}: {token!r} (use 0/1)")


# section -> (its columns in file order, the record made from a row's fields);
# serialize writes field column.lower() of each record in LevelScheme.<section.lower()>
_SECTIONS = {
    "SCHEME": (("key", "value"), lambda f: (f[0], _req_float(f[1], f[0]))),
    "LEVELS": (
        ("label", "configuration", "J", "energy_cm1", "lifetime_s"),
        lambda f: Level(f[0], f[1], _req_float(f[2], "J"), _req_float(f[3], "energy"),
                        _opt_float(f[4], "lifetime")),
    ),
    "DECAYS": (
        ("upper", "lower", "branching_ratio"),
        lambda f: DecayChannel(f[0], f[1], _req_float(f[2], "branching ratio")),
    ),
    "DRIVES": (
        ("upper", "lower", "wavelength_nm", "power_w", "waist_m", "saturation",
         "detuning_hz", "chopped"),
        lambda f: LaserDrive(f[0], f[1], _req_float(f[2], "wavelength"),
                             _opt_float(f[3], "power"), _opt_float(f[4], "waist"),
                             _opt_float(f[5], "saturation"), _req_float(f[6], "detuning"),
                             _req_bool(f[7], "chopped flag")),
    ),
}


def load_scheme(text: str) -> LevelScheme:
    """Parse scheme text. A refusal of one line names that line."""
    section: str | None = None
    rows: dict[str, list] = {name: [] for name in _SECTIONS}

    def parse_line(line: str) -> None:
        nonlocal section
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().upper()
            if name not in _SECTIONS:
                raise SchemeError(f"unknown section [{name}]")
            section = name
            return
        try:
            fields = shlex.split(line, comments=True)
        except ValueError as exc:
            raise SchemeError(f"unbalanced quoting: {exc}") from None
        if section is None:
            raise SchemeError("data before any section header")
        columns, record = _SECTIONS[section]
        if len(fields) != len(columns):
            raise SchemeError("expected: " + " ".join(columns))
        row = record(fields)
        if section == "SCHEME" and row[0] in dict(rows["SCHEME"]):
            raise SchemeError(f"duplicate scheme key: {row[0]}")
        rows[section].append(row)

    walk_lines(text, parse_line)
    meta = dict(rows["SCHEME"])
    unknown = set(meta) - {"ionization_limit_cm1"}
    if unknown:
        raise SchemeError(f"unknown scheme keys: {sorted(unknown)}")
    return LevelScheme(levels=tuple(rows["LEVELS"]), decays=tuple(rows["DECAYS"]),
                       drives=tuple(rows["DRIVES"]),
                       ionization_limit_cm1=meta.get("ionization_limit_cm1"))


def load_scheme_file(path: str | Path) -> LevelScheme:
    return load_scheme(read_text(path))


def bundled_scheme_path(name: str) -> Path:
    """Filesystem path of a scheme shipped with the package (by stem name)."""
    path = DATA_DIR / f"{name}.scheme"
    if not path.is_file():
        raise SchemeError(f"no bundled scheme named {name!r}")
    return path


def load_bundled_scheme(name: str) -> LevelScheme:
    return load_scheme_file(bundled_scheme_path(name))


def _encode(value) -> str:
    """A field as load_scheme reads it: "-" if absent, 0/1, a shlex-quoted
    string, or a Python float's repr (a numpy scalar's reads np.float64(...))."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, str):
        return shlex.quote(value)
    return repr(float(value))


def serialize(scheme: LevelScheme) -> str:
    """Render a scheme as text, each section's columns in _SECTIONS order.

    load_scheme(serialize(s)) == s to the bit, unless a string holds a line
    break, which no line of the format can.
    """
    out = []
    for name, (columns, _) in _SECTIONS.items():
        if name == "SCHEME":
            limit = scheme.ionization_limit_cm1
            rows = [] if limit is None else [("ionization_limit_cm1", limit)]
        else:
            rows = [[getattr(record, column.lower()) for column in columns]
                    for record in getattr(scheme, name.lower())]
        out += [f"[{name}]", *(" ".join(map(_encode, row)) for row in rows), ""]
    return "\n".join(out)


# ---------------------------------------------------------------------------
# validation findings


def validate_scheme(scheme: LevelScheme) -> tuple[str, ...]:
    """Soft findings about a loadable scheme, one line each.

    Hard inconsistencies already raise at load time; the findings are the
    quantitative imperfections worth a human look: branching residuals
    and declared-versus-implied drive wavelength mismatches. The tuple is
    empty exactly when every sum is 1 and every declared wavelength matches
    the energy gap bit for bit.
    """
    sums, wavelengths = _check_consistency(scheme)
    entries = [
        f"level {label}: branching sum {total:.6f}, "
        f"residual {1.0 - total:.6f} unmodeled decay"
        for label, total in sums.items() if total != 1.0
    ]
    for dr, implied in wavelengths:
        if implied != dr.wavelength_nm:
            ppm = abs(implied - dr.wavelength_nm) / dr.wavelength_nm * 1e6
            entries.append(
                f"{dr.name}: declared {dr.wavelength_nm} nm, "
                f"energy gap implies {implied} nm ({ppm:.3f} ppm off)"
            )
    return tuple(entries)

