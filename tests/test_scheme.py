"""Scheme container, file format, and validation diagnostics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybion.constants import PLANCK_CONSTANT_J_S, photon_energy_j, vacuum_wavelength_nm
from ybion.errors import SchemeError
from ybion.scheme import (
    DecayChannel,
    LaserDrive,
    Level,
    LevelScheme,
    load_bundled_scheme,
    load_scheme,
    serialize,
    validate_scheme,
)

MINIMAL = """
[LEVELS]
g "ground" 0.5 0.0 -
e "excited" 0.5 20000.0 8e-9

[DECAYS]
e g 1.0

[DRIVES]
e g 500.0 - - 1.0 0.0 0
"""


def test_constants_hc_consistency():
    # 500 nm photon energy, CODATA hc
    assert photon_energy_j(500.0) == pytest.approx(3.973e-19, rel=1e-4)
    assert PLANCK_CONSTANT_J_S == 6.62607015e-34


def test_bundled_scheme_levels_and_branchings(yb_scheme):
    assert len(yb_scheme.levels) == 9
    labels = set(yb_scheme.labels)
    assert {"6s12", "5d32", "5d52", "6p12", "7s12", "7p12", "f72"} <= labels

    def br(upper, lower):
        for ch in yb_scheme.decays_from(upper):
            if ch.lower == lower:
                return ch.branching_ratio
        raise AssertionError(f"missing decay {upper}->{lower}")

    assert br("6p12", "5d32") == 0.005
    assert br("7p12", "7s12") == 0.691
    assert br("7p12", "6s12") == 0.177
    assert br("7p12", "5d32") == 0.124
    assert br("5d52", "f72") == 0.83


def test_bundled_scheme_lifetimes_present(yb_scheme):
    for label in ("6p12", "5d32", "5d52", "7s12", "7p12", "f72"):
        assert yb_scheme.lifetime(label) is not None
    assert yb_scheme.lifetime("6s12") is None
    assert yb_scheme.ionization_limit_cm1 == 98207.0


def test_minimal_scheme_parses():
    s = load_scheme(MINIMAL)
    assert s.labels == ("g", "e")
    assert s.level("e").lifetime_s == 8e-9
    d = s.drive("e", "g")
    assert d.saturation == 1.0 and d.power_w is None and not d.chopped


def test_empty_levels_rejected():
    with pytest.raises(SchemeError, match="no levels"):
        load_scheme("[LEVELS]\n[DECAYS]\n[DRIVES]\n")


def test_unknown_decay_label_named():
    bad = MINIMAL.replace("e g 1.0", "8s g 1.0")
    with pytest.raises(SchemeError, match="8s"):
        load_scheme(bad)


def test_duplicate_label_rejected():
    bad = MINIMAL.replace('e "excited" 0.5 20000.0 8e-9',
                          'e "excited" 0.5 20000.0 8e-9\ne "other" 0.5 30000.0 8e-9')
    with pytest.raises(SchemeError) as caught:
        load_scheme(bad)
    assert str(caught.value) == "duplicate level label: e"


def test_duplicate_decay_channel_rejected():
    # the two halves sum to 1, so only the repeat is wrong
    bad = MINIMAL.replace("e g 1.0", "e g 0.5\ne g 0.5")
    with pytest.raises(SchemeError) as caught:
        load_scheme(bad)
    assert str(caught.value) == "duplicate decay channel e->g"


def test_duplicate_drive_pair_rejected_when_constructed():
    scheme = load_scheme(MINIMAL)
    with pytest.raises(SchemeError) as caught:
        LevelScheme(levels=scheme.levels, decays=scheme.decays,
                    drives=scheme.drives + (scheme.drive("e", "g"),))
    assert str(caught.value) == "duplicate drive e<->g"


def test_ground_energy_must_be_zero():
    bad = MINIMAL.replace('g "ground" 0.5 0.0 -', 'g "ground" 0.5 5.0 -')
    with pytest.raises(SchemeError, match="0"):
        load_scheme(bad)


def test_branching_sum_above_one_rejected():
    # each ratio lies in (0, 1]; only their sum is wrong
    bad = MINIMAL.replace('g "ground" 0.5 0.0 -',
                          'g "ground" 0.5 0.0 -\nx "other" 0.5 10000.0 -')
    bad = bad.replace("e g 1.0", "e g 0.7\ne x 0.7")
    with pytest.raises(SchemeError) as caught:
        load_scheme(bad)
    assert str(caught.value) == "level e: branching ratios sum to 1.4 > 1"


def test_parse_error_carries_line_number():
    bad = MINIMAL.replace("e g 1.0", "e g not-a-number")
    with pytest.raises(SchemeError, match=r"line \d+"):
        load_scheme(bad)


@pytest.mark.parametrize("text, message", [
    pytest.param(MINIMAL + "[EXTRA]\n", "line 11: unknown section [EXTRA]",
                 id="unknown-section"),
    pytest.param(MINIMAL.replace('e "excited"', 'e "excited'),
                 "line 4: unbalanced quoting: No closing quotation",
                 id="unbalanced-quoting"),
    pytest.param("g x\n" + MINIMAL, "line 1: data before any section header",
                 id="data-before-section"),
    pytest.param("[SCHEME]\nionization_limit_cm1\n" + MINIMAL,
                 "line 2: expected: key value", id="scheme-field-count"),
    pytest.param(MINIMAL.replace('g "ground" 0.5 0.0 -', 'g "ground" 0.5 0.0'),
                 "line 3: expected: label configuration J energy_cm1 lifetime_s",
                 id="levels-field-count"),
    pytest.param(MINIMAL.replace("e g 1.0", "e g"),
                 "line 7: expected: upper lower branching_ratio",
                 id="decays-field-count"),
    pytest.param(MINIMAL.replace("1.0 0.0 0", "1.0 0.0"),
                 "line 10: expected: upper lower wavelength_nm power_w waist_m "
                 "saturation detuning_hz chopped", id="drives-field-count"),
    pytest.param("[SCHEME]\nfoo 1.0\n" + MINIMAL, "unknown scheme keys: ['foo']",
                 id="unknown-scheme-key"),
    pytest.param(MINIMAL.replace("1.0 0.0 0", "1.0 0.0 2"),
                 "line 10: bad chopped flag: '2' (use 0/1)", id="bad-chopped-flag"),
    pytest.param(MINIMAL.replace('g "ground" 0.5 0.0 -', 'g "ground" 0.5 - -'),
                 "line 3: energy is required", id="dash-in-required-field"),
    pytest.param(MINIMAL.replace('g "ground"', '"" "ground"'),
                 "line 3: level label must be non-empty", id="empty-label"),
    pytest.param(MINIMAL.replace("e g 1.0", "g e 1.0"),
                 "decay g->e: upper level is not above lower", id="decay-upward"),
    pytest.param(MINIMAL.replace("e g 1.0", "e e 1.0"),
                 "line 7: decay e->e: levels must differ", id="decay-to-itself"),
    pytest.param(MINIMAL.replace("e g 500.0", "e q 500.0"),
                 "drive e<->q: unknown level label: q", id="drive-to-unknown-level"),
    pytest.param(MINIMAL.replace("e g 500.0", "e e 500.0"),
                 "line 10: drive e<->e: levels must differ", id="drive-to-itself"),
    pytest.param(MINIMAL + "e g 500.0 - - 2.0 0.0 0\n", "duplicate drive e<->g",
                 id="duplicate-drive"),
    pytest.param("[SCHEME]\nionization_limit_cm1 1.0\nionization_limit_cm1 98207.0\n"
                 + MINIMAL, "line 3: duplicate scheme key: ionization_limit_cm1",
                 id="repeated-scheme-key"),
])
def test_scheme_file_refusals_keep_their_wording(text, message):
    with pytest.raises(SchemeError) as caught:
        load_scheme(text)
    assert str(caught.value) == message


def test_drive_needs_exactly_one_strength_spec():
    with pytest.raises(SchemeError):
        LaserDrive(
            upper="e", lower="g", wavelength_nm=500.0,
            power_w=1e-3, waist_m=1e-5, saturation=1.0,
        )
    with pytest.raises(SchemeError):
        LaserDrive(upper="e", lower="g", wavelength_nm=500.0)


DRIVE_NAN_MESSAGES = {
    "saturation": "drive e<->g: saturation must be >= 0 and finite, got nan",
    "detuning_hz": "drive e<->g: detuning_hz must be finite, got nan",
    "wavelength_nm": "drive e<->g: wavelength_nm must be positive and finite, got nan",
}


@pytest.mark.parametrize("field", ["saturation", "detuning_hz", "wavelength_nm"])
def test_drive_rejects_nan(field):
    fields = dict(upper="e", lower="g", wavelength_nm=500.0, saturation=1.0)
    fields[field] = math.nan
    with pytest.raises(SchemeError, match=re.escape(DRIVE_NAN_MESSAGES[field])):
        LaserDrive(**fields)


def test_drive_wavelength_must_match_gap():
    bad = MINIMAL.replace("e g 500.0", "e g 503.0")  # 0.6% off
    with pytest.raises(SchemeError, match="wavelength"):
        load_scheme(bad)


def test_level_invariants():
    with pytest.raises(SchemeError):
        Level(label="x", configuration="c", j=0.5, energy_cm1=-1.0)
    with pytest.raises(SchemeError):
        Level(label="x", configuration="c", j=0.5, energy_cm1=1.0, lifetime_s=0.0)
    with pytest.raises(SchemeError):
        DecayChannel(upper="a", lower="b", branching_ratio=0.0)


def test_round_trip_bundled_bit_exact(yb_scheme):
    again = load_scheme(serialize(yb_scheme))
    assert again == yb_scheme


def test_round_trip_preserves_awkward_floats():
    s = load_scheme(MINIMAL)
    s = s.with_level("e", lifetime_s=8.0700000000000004e-09)
    s = s.with_drive("e", "g", saturation=0.1 + 0.2)
    again = load_scheme(serialize(s))
    assert again == s


@pytest.mark.parametrize("name", ["yb174_plus", "linewidth_reference", "powered"])
@pytest.mark.parametrize("saturation", [0.0, 1e-2, 1e4])
def test_saturating_every_drive_applies_the_with_drive_rule(name, saturation):
    if name == "powered":
        scheme = load_bundled_scheme("yb174_plus").with_drive(
            "6p12", "6s12", power_w=1e-3, waist_m=1e-5)
        assert scheme.drive("6p12", "6s12").saturation is None
    else:
        scheme = load_bundled_scheme(name)
    expected = scheme
    for d in scheme.drives:
        expected = expected.with_drive(d.upper, d.lower, saturation=saturation)
    assert scheme.with_all_drives_saturated(saturation) == expected


def test_round_trip_writes_numpy_scalars_as_plain_floats():
    s = load_scheme(MINIMAL).with_all_drives_saturated(np.float64(2.0))
    s = s.with_level("e", energy_cm1=np.float64(20000.0),
                     lifetime_s=np.float64(8.0700000000000004e-09))
    s = s.with_drive("e", "g", wavelength_nm=np.float64(500.0),
                     detuning_hz=np.float64(0.1 + 0.2))
    text = serialize(s)
    assert "np." not in text
    assert load_scheme(text) == s


def test_round_trip_keeps_spaces_hashes_and_quotes_in_strings():
    # spaces, "#" and both quote characters survive in labels and
    # configurations, as do an empty configuration and one that reads "-"
    g, e = "g #1 ground", "e 2"
    s = LevelScheme(
        levels=(Level(g, "[Xe] \"6s\" 'x' # y", 0.5, 0.0),
                Level("#e", "", 0.5, 20000.0, 8e-9), Level(e, "-", 0.5, 30000.0)),
        decays=(DecayChannel("#e", g, 1.0),),
        drives=(LaserDrive("#e", g, 500.0, saturation=1.0, chopped=True),
                LaserDrive(e, g, vacuum_wavelength_nm(30000.0), power_w=1e-3,
                           waist_m=1e-5)),
    )
    assert load_scheme(serialize(s)) == s


@pytest.mark.parametrize("separator", [
    "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
    "\u2029",
])
def test_level_strings_refuse_line_breaks(separator):
    # serialize writes each level as one line, so no string may split it
    with pytest.raises(SchemeError) as caught:
        Level("a" + separator + "b", "", 0.5, 0.0)
    assert str(caught.value) == (
        f"level label must hold no line break, got {'a' + separator + 'b'!r}")
    with pytest.raises(SchemeError) as caught:
        Level("g", "[Xe] 6s" + separator, 0.5, 0.0)
    assert str(caught.value) == (
        f"level g: configuration must hold no line break, got {'[Xe] 6s' + separator!r}")
    assert "\n" not in str(caught.value)


def test_validate_flags_unmodeled_residual(yb_scheme):
    # bundled file: three published channels plus the 0.005 effective
    # cascade channel leave 0.003 unaccounted
    findings = validate_scheme(yb_scheme)
    assert findings
    line = next(e for e in findings if e.startswith("level 7p12"))
    assert "unmodeled decay" in line
    assert "0.003" in line
    # channels that sum to exactly 1 raise no flag
    assert not any(e.startswith("level 5d32") for e in findings)


def test_validate_three_channel_residual(yb_scheme):
    # with only the three published channels the residual is 0.008
    decays = tuple(
        d
        for d in yb_scheme.decays
        if not (d.upper == "7p12" and d.lower == "5d52")
    )
    import dataclasses

    trimmed = dataclasses.replace(yb_scheme, decays=decays)
    line = next(
        e
        for e in validate_scheme(trimmed)
        if e.startswith("level 7p12")
    )
    assert "0.008" in line and "unmodeled decay" in line


def test_validate_exact_wavelength_is_clean():
    assert validate_scheme(load_scheme(MINIMAL)) == ()


def test_validate_reports_wavelength_mismatch_ppm():
    s = load_scheme(MINIMAL)
    s = s.with_drive("e", "g", wavelength_nm=500.1)
    assert any("ppm" in e for e in validate_scheme(s))


def test_wavelength_finding_across_a_tiny_gap_is_one_short_line():
    # a 1e-300 cm^-1 gap implies a wavelength of about 1e307 nm
    s = LevelScheme(
        levels=(Level("g", "", 0.5, 0.0), Level("e", "", 0.5, 1e-300)),
        drives=(LaserDrive("e", "g", 1.0000000000001e307, saturation=1.0),),
    )
    (finding,) = validate_scheme(s)
    assert finding.startswith("drive e<->g: declared 1.0000000000001e+307 nm, "
                              "energy gap implies ")
    assert len(finding) < 200


def test_transition_wavelength_arithmetic():
    # loading compares each declared drive wavelength with 1e7 / gap nm
    s = load_scheme(MINIMAL)
    assert vacuum_wavelength_nm(s.energy("e") - s.energy("g")) == pytest.approx(500.0)
    s2 = load_scheme(
        MINIMAL.replace("0.5 20000.0", "0.5 10000.0").replace(
            "e g 500.0", "e g 1000.0"
        )
    )
    assert vacuum_wavelength_nm(s2.energy("e") - s2.energy("g")) == pytest.approx(1000.0)


def test_transition_wavelength_yb_245(yb_scheme):
    lam = vacuum_wavelength_nm(yb_scheme.energy("7p12") - yb_scheme.energy("5d32"))
    assert abs(lam - 245.426) < 0.1


def test_transition_wavelength_errors():
    # a drive whose upper level is below or level with its lower one has no
    # transition wavelength and is refused at load
    with pytest.raises(SchemeError, match="drive g<->e: upper level is not above"):
        load_scheme(MINIMAL.replace("e g 500.0", "g e 500.0"))
    with pytest.raises(SchemeError, match="drive e<->g: upper level is not above"):
        LevelScheme(
            levels=(Level("g", "c", 0.5, 0.0), Level("e", "c", 0.5, 0.0)),
            drives=(LaserDrive("e", "g", 500.0, saturation=1.0),),
        )


def test_with_all_drives_saturated(yb_scheme):
    s = yb_scheme.with_all_drives_saturated(1e4)
    for d in s.drives:
        assert d.saturation == 1e4
        assert d.power_w is None and d.waist_m is None


@pytest.mark.parametrize("saturation", [-1.0, math.nan, math.inf])
def test_saturating_every_drive_checks_the_saturation_once(yb_scheme, saturation):
    first = yb_scheme.drives[0].name
    with pytest.raises(SchemeError) as refusal:
        yb_scheme.with_all_drives_saturated(saturation)
    assert str(refusal.value) == (
        f"{first}: saturation must be >= 0 and finite, got {saturation}")
    # a scheme without drives has no saturation to check
    no_drives = load_scheme(MINIMAL.partition("[DRIVES]")[0])
    assert no_drives.drives == ()
    assert no_drives.with_all_drives_saturated(saturation) == no_drives


def test_saturating_every_drive_with_none_names_the_first_drive(yb_scheme):
    with pytest.raises(SchemeError) as refusal:
        yb_scheme.with_all_drives_saturated(None)
    assert str(refusal.value) == (
        "drive 6p12<->6s12: needs saturation or a complete power/waist pair")


def test_with_drive_keeps_one_strength():
    s = load_scheme(MINIMAL)
    powered = s.with_drive("e", "g", power_w=1e-3, waist_m=1e-5)
    d = powered.drive("e", "g")
    assert (d.power_w, d.waist_m, d.saturation) == (1e-3, 1e-5, None)
    # one of the pair alone clears saturation but leaves the other as it was
    d = powered.with_drive("e", "g", power_w=2e-3).drive("e", "g")
    assert (d.power_w, d.waist_m, d.saturation) == (2e-3, 1e-5, None)
    d = powered.with_drive("e", "g", saturation=0.5).drive("e", "g")
    assert (d.power_w, d.waist_m, d.saturation) == (None, None, 0.5)
    # fields other than the strength leave it alone
    d = powered.with_drive("e", "g", detuning_hz=1e6).drive("e", "g")
    assert (d.power_w, d.waist_m, d.saturation) == (1e-3, 1e-5, None)


@pytest.mark.parametrize("changes,message", [
    (dict(saturation=0.5, power_w=1e-3, waist_m=1e-5), "give saturation or power/waist, not both"),
    (dict(saturation=0.5, waist_m=1e-5), "give saturation or power/waist, not both"),
    (dict(power_w=1e-3), "needs saturation or a complete power/waist pair"),
    (dict(saturation=None), "needs saturation or a complete power/waist pair"),
])
def test_with_drive_refuses_an_incomplete_or_double_strength(changes, message):
    with pytest.raises(SchemeError) as caught:
        load_scheme(MINIMAL).with_drive("e", "g", **changes)
    assert str(caught.value) == f"drive e<->g: {message}"


@pytest.mark.parametrize("changes,message", [
    (dict(wavelength_nm=250.0), "drive 7p12<->5d32: declared wavelength 250.0 nm "
     "differs from energy gap (245.426 nm) by 1.83e-02 (limit 0.001)"),
    (dict(upper="6p12", lower="6s12"), "duplicate drive 6p12<->6s12"),
])
def test_with_drive_outside_the_strength_fields_runs_every_scheme_check(yb_scheme, changes,
                                                                       message):
    with pytest.raises(SchemeError) as caught:
        yb_scheme.with_drive("7p12", "5d32", **changes)
    assert str(caught.value) == message


@pytest.mark.parametrize("kind,prefix,make", [
    ("decays", "decay {}->{}", lambda u, l: DecayChannel(u, l, 1.0)),
    ("drives", "drive {}<->{}", lambda u, l: LaserDrive(u, l, 1e7, saturation=1.0)),
])
def test_decays_and_drives_share_one_pair_check(kind, prefix, make):
    levels = (Level("g", "c", 0.5, 0.0), Level("e", "c", 0.5, 1.0))
    assert make("e", "g").name == prefix.format("e", "g")
    duplicate = {"decays": "duplicate decay channel e->g", "drives": "duplicate drive e<->g"}
    for records, message in (
            ((make("g", "e"),), prefix.format("g", "e") + ": upper level is not above lower"),
            ((make("e", "x"),), prefix.format("e", "x") + ": unknown level label: x"),
            ((make("e", "g"), make("e", "g")), duplicate[kind])):
        with pytest.raises(SchemeError) as caught:
            LevelScheme(levels=levels, **{kind: records})
        assert str(caught.value) == message


label_st = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=6
)
energy_st = st.floats(
    min_value=1.0, max_value=1e5, allow_nan=False, allow_infinity=False
)
lifetime_st = st.one_of(
    st.none(),
    st.floats(min_value=1e-9, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_random_schemes(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    labels = data.draw(
        st.lists(label_st, min_size=n, max_size=n, unique=True)
    )
    energies = sorted(
        data.draw(
            st.lists(energy_st, min_size=n - 1, max_size=n - 1, unique=True)
        )
    )
    levels = [Level(labels[0], "ground", 0.5, 0.0, None)]
    for lbl, en in zip(labels[1:], energies):
        levels.append(
            Level(lbl, "cfg with space", 1.5, en, data.draw(lifetime_st))
        )
    decays = []
    for i, lv in enumerate(levels[1:], start=1):
        if lv.lifetime_s is not None:
            decays.append(DecayChannel(lv.label, levels[0].label, 1.0))
    drives = []
    if levels[-1].lifetime_s is not None:
        lam = 1e7 / (levels[-1].energy_cm1 - levels[0].energy_cm1)
        drives.append(
            LaserDrive(
                upper=levels[-1].label,
                lower=levels[0].label,
                wavelength_nm=lam,
                saturation=data.draw(
                    st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
                ),
                detuning_hz=data.draw(
                    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
                ),
                chopped=data.draw(st.booleans()),
            )
        )
    scheme = LevelScheme(
        levels=tuple(levels),
        decays=tuple(decays),
        drives=tuple(drives),
        ionization_limit_cm1=data.draw(
            st.one_of(st.none(), st.floats(min_value=2e5, max_value=1e6))
        ),
    )
    again = load_scheme(serialize(scheme))
    assert again == scheme
    assert math.isclose(
        again.levels[-1].energy_cm1, scheme.levels[-1].energy_cm1, rel_tol=0
    )
