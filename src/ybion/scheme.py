"""Level-scheme data model: levels, spontaneous decays, and laser drives.

A scheme is loaded from a small sectioned text format and is immutable once
constructed, so a single instance can be shared between solvers and the
command line. The bundled ``yb174_plus`` scheme describes the nine-level
ladder used to drive a trapped Yb+ ion to Yb2+ in three resonant steps; the
same container also serves reduced test schemes.

File format (``#`` starts a comment, fields are whitespace separated,
double quotes protect embedded spaces, ``-`` marks an absent optional
value)::

    [SCHEME]
    ionization_limit_cm1  98207.0

    [LEVELS]
    # label  configuration  J  energy_cm1  lifetime_s
    6s12  "[Xe]4f14 6s"  0.5  0.0  -

    [DECAYS]
    # upper  lower  branching_ratio

    [DRIVES]
    # upper  lower  wavelength_nm  power_w  waist_m  saturation  detuning_hz  chopped

A drive carries either an explicit saturation parameter or a power/waist
pair, never both. Declared drive wavelengths must agree with the level
energy gap to 0.1 percent.
"""

from __future__ import annotations

import dataclasses
import math
import shlex
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .constants import vacuum_wavelength_nm
from .errors import SchemeError

__all__ = [
    "Level",
    "DecayChannel",
    "LaserDrive",
    "LevelScheme",
    "ValidationReport",
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
        if self.j < 0:
            raise SchemeError(f"level {self.label}: J must be >= 0")
        if self.energy_cm1 < 0:
            raise SchemeError(f"level {self.label}: energy must be >= 0")
        if self.lifetime_s is not None and self.lifetime_s <= 0:
            raise SchemeError(f"level {self.label}: lifetime must be positive")


@dataclass(frozen=True)
class DecayChannel:
    """Spontaneous decay upper -> lower with a branching ratio in (0, 1]."""

    upper: str
    lower: str
    branching_ratio: float

    def __post_init__(self):
        if not 0.0 < self.branching_ratio <= 1.0:
            raise SchemeError(
                f"decay {self.upper}->{self.lower}: branching ratio "
                f"{self.branching_ratio!r} outside (0, 1]"
            )
        if self.upper == self.lower:
            raise SchemeError(f"decay {self.upper}->{self.lower}: levels must differ")


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
        if self.upper == self.lower:
            raise SchemeError(f"drive {self.upper}<->{self.lower}: levels must differ")
        for name in ("wavelength_nm", "power_w", "waist_m", "saturation", "detuning_hz"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SchemeError(
                    f"drive {self.upper}<->{self.lower}: {name} must be finite, "
                    f"got {value}"
                )
        if self.wavelength_nm <= 0:
            raise SchemeError(
                f"drive {self.upper}<->{self.lower}: wavelength must be positive"
            )
        has_power = self.power_w is not None or self.waist_m is not None
        has_sat = self.saturation is not None
        if has_sat and has_power:
            raise SchemeError(
                f"drive {self.upper}<->{self.lower}: give saturation or "
                "power/waist, not both"
            )
        if not has_sat and not (self.power_w is not None and self.waist_m is not None):
            raise SchemeError(
                f"drive {self.upper}<->{self.lower}: needs saturation or a "
                "complete power/waist pair"
            )
        if self.power_w is not None and self.power_w < 0:
            raise SchemeError(f"drive {self.upper}<->{self.lower}: power must be >= 0")
        if self.waist_m is not None and self.waist_m <= 0:
            raise SchemeError(f"drive {self.upper}<->{self.lower}: waist must be > 0")
        if self.saturation is not None and self.saturation < 0:
            raise SchemeError(
                f"drive {self.upper}<->{self.lower}: saturation must be >= 0"
            )


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
        """Copy of the scheme with one drive's fields replaced."""
        target = self.drive(upper, lower)
        new = dataclasses.replace(target, **changes)
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


def _check_consistency(scheme: LevelScheme) -> None:
    if not scheme.levels:
        raise SchemeError("scheme has no levels")
    seen: set[str] = set()
    for lv in scheme.levels:
        if lv.label in seen:
            raise SchemeError(f"duplicate level label: {lv.label}")
        seen.add(lv.label)
    ground = min(lv.energy_cm1 for lv in scheme.levels)
    if ground != 0.0:
        raise SchemeError("lowest level must sit at energy exactly 0")

    by_label = {lv.label: lv for lv in scheme.levels}
    sums: dict[str, float] = {}
    for d in scheme.decays:
        for end in (d.upper, d.lower):
            if end not in by_label:
                raise SchemeError(
                    f"decay {d.upper}->{d.lower}: unknown level label: {end}"
                )
        if by_label[d.upper].energy_cm1 <= by_label[d.lower].energy_cm1:
            raise SchemeError(
                f"decay {d.upper}->{d.lower}: upper level is not above lower"
            )
        key = (d.upper, d.lower)
        if sum(1 for x in scheme.decays if (x.upper, x.lower) == key) > 1:
            raise SchemeError(f"duplicate decay channel {d.upper}->{d.lower}")
        sums[d.upper] = sums.get(d.upper, 0.0) + d.branching_ratio
    for label, total in sums.items():
        if total > 1.0 + BRANCHING_SUM_SLACK:
            raise SchemeError(
                f"level {label}: branching ratios sum to {total!r} > 1"
            )

    for dr in scheme.drives:
        for end in (dr.upper, dr.lower):
            if end not in by_label:
                raise SchemeError(
                    f"drive {dr.upper}<->{dr.lower}: unknown level label: {end}"
                )
        gap = by_label[dr.upper].energy_cm1 - by_label[dr.lower].energy_cm1
        if gap <= 0:
            raise SchemeError(
                f"drive {dr.upper}<->{dr.lower}: upper level is not above lower"
            )
        implied = vacuum_wavelength_nm(gap)
        mismatch = abs(implied - dr.wavelength_nm) / dr.wavelength_nm
        if mismatch > WAVELENGTH_TOLERANCE:
            raise SchemeError(
                f"drive {dr.upper}<->{dr.lower}: declared wavelength "
                f"{dr.wavelength_nm} nm differs from energy gap "
                f"({implied:.4f} nm) by {mismatch:.2e} (limit {WAVELENGTH_TOLERANCE})"
            )


# ---------------------------------------------------------------------------
# parsing and serialization


_SECTIONS = ("SCHEME", "LEVELS", "DECAYS", "DRIVES")


def data_lines(text: str):
    """(one-based line number, stripped text) of each non-blank, non-# line."""
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield n, line


def parse_number(token: str, what: str, line: int, kind: type = float):
    """One field as a finite float (an int with kind=int), else SchemeError."""
    try:
        value = kind(token)
        if -math.inf < float(value) < math.inf:
            return value
    except (ValueError, OverflowError):  # OverflowError: an int beyond any float
        pass
    rule = "an integer in the floating-point range" if kind is int else "finite"
    raise SchemeError(f"{what} must be {rule}, got {token!r}", line=line)


def _opt_float(token: str, what: str, line: int) -> float | None:
    return None if token == "-" else parse_number(token, what, line)


def _req_float(token: str, what: str, line: int) -> float:
    if token == "-":
        raise SchemeError(f"{what} is required", line=line)
    return parse_number(token, what, line)


def _req_bool(token: str, what: str, line: int) -> bool:
    low = token.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise SchemeError(f"bad {what}: {token!r} (use 0/1)", line=line)


def load_scheme(text: str) -> LevelScheme:
    """Parse scheme text. Raises SchemeError with a line number on failure."""
    section: str | None = None
    levels: list[Level] = []
    decays: list[DecayChannel] = []
    drives: list[LaserDrive] = []
    meta: dict[str, float] = {}

    for n, line in data_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().upper()
            if name not in _SECTIONS:
                raise SchemeError(f"unknown section [{name}]", line=n)
            section = name
            continue
        try:
            fields = shlex.split(line, comments=True)
        except ValueError as exc:
            raise SchemeError(f"unbalanced quoting: {exc}", line=n) from None
        if section is None:
            raise SchemeError("data before any section header", line=n)

        try:
            if section == "SCHEME":
                if len(fields) != 2:
                    raise SchemeError("expected: key value", line=n)
                meta[fields[0]] = _req_float(fields[1], fields[0], n)
            elif section == "LEVELS":
                if len(fields) != 5:
                    raise SchemeError(
                        "expected: label configuration J energy_cm1 lifetime_s",
                        line=n,
                    )
                levels.append(
                    Level(
                        label=fields[0],
                        configuration=fields[1],
                        j=_req_float(fields[2], "J", n),
                        energy_cm1=_req_float(fields[3], "energy", n),
                        lifetime_s=_opt_float(fields[4], "lifetime", n),
                    )
                )
            elif section == "DECAYS":
                if len(fields) != 3:
                    raise SchemeError("expected: upper lower branching_ratio", line=n)
                decays.append(
                    DecayChannel(
                        upper=fields[0],
                        lower=fields[1],
                        branching_ratio=_req_float(fields[2], "branching ratio", n),
                    )
                )
            elif section == "DRIVES":
                if len(fields) != 8:
                    raise SchemeError(
                        "expected: upper lower wavelength_nm power_w waist_m "
                        "saturation detuning_hz chopped",
                        line=n,
                    )
                drives.append(
                    LaserDrive(
                        upper=fields[0],
                        lower=fields[1],
                        wavelength_nm=_req_float(fields[2], "wavelength", n),
                        power_w=_opt_float(fields[3], "power", n),
                        waist_m=_opt_float(fields[4], "waist", n),
                        saturation=_opt_float(fields[5], "saturation", n),
                        detuning_hz=_req_float(fields[6], "detuning", n),
                        chopped=_req_bool(fields[7], "chopped flag", n),
                    )
                )
        except SchemeError as exc:
            if exc.line is None:
                raise SchemeError(str(exc), line=n) from None
            raise

    unknown = set(meta) - {"ionization_limit_cm1"}
    if unknown:
        raise SchemeError(f"unknown scheme keys: {sorted(unknown)}")
    return LevelScheme(
        levels=tuple(levels),
        decays=tuple(decays),
        drives=tuple(drives),
        ionization_limit_cm1=meta.get("ionization_limit_cm1"),
    )


def load_scheme_file(path: str | Path) -> LevelScheme:
    return load_scheme(Path(path).read_text(encoding="utf-8"))


def bundled_scheme_path(name: str) -> Path:
    """Filesystem path of a scheme shipped with the package (by stem name)."""
    res = resources.files("ybion").joinpath("data", f"{name}.scheme")
    with resources.as_file(res) as p:
        if not p.is_file():
            raise SchemeError(f"no bundled scheme named {name!r}")
        return Path(p)


def load_bundled_scheme(name: str) -> LevelScheme:
    return load_scheme_file(bundled_scheme_path(name))


def _fmt_opt(value: float | None) -> str:
    return "-" if value is None else repr(value)


def serialize(scheme: LevelScheme) -> str:
    """Render a scheme back to its text form.

    Floats are written with repr so that load_scheme(serialize(s)) returns
    a scheme whose numbers are bit-identical to the original.
    """
    out: list[str] = []
    if scheme.ionization_limit_cm1 is not None:
        out += ["[SCHEME]", f"ionization_limit_cm1 {scheme.ionization_limit_cm1!r}", ""]
    out.append("[LEVELS]")
    for lv in scheme.levels:
        config = '"' + lv.configuration.replace('"', "") + '"'
        out.append(
            f"{lv.label} {config} {lv.j!r} {lv.energy_cm1!r} {_fmt_opt(lv.lifetime_s)}"
        )
    out += ["", "[DECAYS]"]
    for d in scheme.decays:
        out.append(f"{d.upper} {d.lower} {d.branching_ratio!r}")
    out += ["", "[DRIVES]"]
    for dr in scheme.drives:
        out.append(
            f"{dr.upper} {dr.lower} {dr.wavelength_nm!r} {_fmt_opt(dr.power_w)} "
            f"{_fmt_opt(dr.waist_m)} {_fmt_opt(dr.saturation)} "
            f"{dr.detuning_hz!r} {1 if dr.chopped else 0}"
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation report


@dataclass(frozen=True)
class ValidationReport:
    """Soft findings about a loadable scheme.

    Hard inconsistencies already raise at load time; the report collects
    the quantitative imperfections worth a human look: branching residuals
    and declared-versus-implied drive wavelength mismatches. The text is
    empty exactly when every sum is 1 and every declared wavelength matches
    the energy gap bit for bit.
    """

    entries: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.entries)

    @property
    def is_clean(self) -> bool:
        return not self.entries


def validate_scheme(scheme: LevelScheme) -> ValidationReport:
    entries: list[str] = []
    for lv in scheme.levels:
        channels = scheme.decays_from(lv.label)
        if not channels:
            continue
        total = sum(c.branching_ratio for c in channels)
        if total != 1.0:
            entries.append(
                f"level {lv.label}: branching sum {total:.6f}, "
                f"residual {1.0 - total:.6f} unmodeled decay"
            )
    for dr in scheme.drives:
        gap = scheme.energy(dr.upper) - scheme.energy(dr.lower)
        implied = vacuum_wavelength_nm(gap)
        if implied != dr.wavelength_nm:
            ppm = abs(implied - dr.wavelength_nm) / dr.wavelength_nm * 1e6
            entries.append(
                f"drive {dr.upper}<->{dr.lower}: declared {dr.wavelength_nm} nm, "
                f"energy gap implies {implied:.6f} nm ({ppm:.3f} ppm off)"
            )
    return ValidationReport(entries=tuple(entries))

