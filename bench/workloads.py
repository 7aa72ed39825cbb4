"""The three in-process workloads: lineshape, dynamics and montecarlo.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs come from a numpy Generator
seeded with the benchmark seed and are drawn in blocks. Within a block every
varied input is stratified (one draw per equal-width stratum, shuffled) and
input sizes sit on a fixed ladder in seeded order, so each block covers the
whole input range and a run's mix of work does not depend on the seed.

A run executes a fixed number of blocks, `blocks_per_s` per second of
--seconds (sized so that a run's operations take about that long at
reference speed, see speed.py, at the commit that introduced the
benchmark). The work, the outputs and the failures of a run are therefore
fixed by the seed and --seconds alone; a faster program finishes sooner.

`run(spec)` executes one operation through the public ybion API and checks
its outputs. It returns an Outcome: work units, attempts and failures (a
failure is an exception or a failed check), and a digest of the outputs.
The program calls go through module attributes (`spectro.simulate_scan`)
so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from ybion import constants, crystal, mc, photoion, rates, scheme, spectro

SCAN_UPPER, SCAN_LOWER = "7p12", "5d32"
TAU_REFERENCE_S = 13.5e-9  # probed lifetime of the linewidth_reference scheme


@dataclass
class Outcome:
    units: int
    attempted: int
    errors: int = 0
    wrong: int = 0
    digest: str = ""
    notes: list[str] = field(default_factory=list)


def strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one in each of n equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def ladder(rng: np.random.Generator, n: int) -> np.ndarray:
    """The midpoints of n equal strata of [0, 1), shuffled. Used for input
    sizes, so that every block holds the same amount of work and only its
    order depends on the seed."""
    return (rng.permutation(n) + 0.5) / n


def log_uniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _error_note(exc: Exception) -> str:
    # The text before the first colon, so that repeats of one error group.
    return f"{type(exc).__name__}: {str(exc).split(':')[0]}"


class Lineshape:
    """Line scan of the 7p12<->5d32 drive, Lorentzian fit, lifetime."""

    name = "lineshape"
    unit = "scan points"
    block_size = 9  # odd: the median and p75 fall inside one ladder step
    blocks_per_s = 1.0
    kind_by_size = ("reference", "yb174_plus", "reference", "reference",
                    "reference_clean", "reference", "reference", "yb174_plus",
                    "reference")  # smallest to largest
    tail_pct = 75.0  # the 7th of 9 in a block
    # Fresh-interpreter set-up: imports plus the two schemes the scans use.
    setup_code = (
        "from ybion import scheme, spectro\n"
        "scheme.load_bundled_scheme('linewidth_reference')\n"
        "scheme.load_bundled_scheme('yb174_plus')\n"
    )

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.schemes = {
            "linewidth_reference": scheme.load_bundled_scheme("linewidth_reference"),
            "yb174_plus": scheme.load_bundled_scheme("yb174_plus"),
        }
        # Noise is 1% of each scheme's noiseless signal span on the
        # README grid; the yb174_plus lifetime on that grid is the
        # reference its noisy fits are checked against (that scheme's
        # optical pumping biases the width, see spectro's docstring).
        grid = np.linspace(-60e6, 60e6, 241)
        self.span = {}
        self.yb_tau_s = None
        for label, sch in self.schemes.items():
            curve = spectro.simulate_scan(sch, SCAN_UPPER, SCAN_LOWER, grid)
            self.span[label] = max(curve.fluorescence) - min(curve.fluorescence)
            if label == "yb174_plus":
                fit = spectro.fit_lorentzian(curve)
                self.yb_tau_s = spectro.lifetime_from_linewidth(
                    fit.fwhm_hz, self._saturation(sch))
        if not (self.yb_tau_s and self.yb_tau_s > 0):
            raise RuntimeError("yb174_plus reference fit failed during set-up")

    @staticmethod
    def _saturation(sch) -> float:
        return sch.drive(SCAN_UPPER, SCAN_LOWER).saturation

    def block(self, rng: np.random.Generator) -> list[dict]:
        n = self.block_size
        # 7 of 9 scans use linewidth_reference (one of them noiseless, the
        # criterion-9 check); 2 use the bundled nine-level scheme, which
        # costs more per point. Each step of the size ladder has a fixed
        # kind, so every block holds the same work; the seed sets the order,
        # the spans and the noise.
        order = rng.permutation(n)
        kinds = [self.kind_by_size[i] for i in order]
        points = 61 + np.floor((order + 0.5) / n * 421).astype(int)
        if self.smoke:
            points = np.full(n, 21)
        half_span = 60e6 * (0.9 + 0.2 * strata(rng, n))
        noise_seeds = rng.integers(0, 2**31, size=n)
        return [
            {
                "kind": kinds[i],
                "points": int(points[i]),
                "half_span_hz": float(half_span[i]),
                "noise_seed": int(noise_seeds[i]),
            }
            for i in range(n)
        ]

    def run(self, spec: dict) -> Outcome:
        label = "yb174_plus" if spec["kind"] == "yb174_plus" else "linewidth_reference"
        sch = self.schemes[label]
        noisy = spec["kind"] != "reference_clean"
        grid = np.linspace(-spec["half_span_hz"], spec["half_span_hz"], spec["points"])
        out = Outcome(units=spec["points"], attempted=1)
        try:
            curve = spectro.simulate_scan(
                sch, SCAN_UPPER, SCAN_LOWER, grid,
                noise_sigma=0.01 * self.span[label] if noisy else None,
                seed=spec["noise_seed"] if noisy else None,
            )
            fit = spectro.fit_lorentzian(curve)
            tau = (
                spectro.lifetime_from_linewidth(fit.fwhm_hz, self._saturation(sch))
                if fit.converged else None
            )
        except Exception as exc:
            out.errors = 1
            out.notes.append(_error_note(exc))
            out.digest = _sha("error", type(exc).__name__)
            return out
        out.digest = _sha(
            np.asarray(curve.fluorescence).tobytes(),
            (fit.converged, fit.center_hz, fit.fwhm_hz, fit.amplitude, fit.offset, tau),
        )
        if len(curve) != spec["points"] or not fit.converged or tau is None:
            out.wrong = 1
            out.notes.append(f"{spec['kind']}: fit did not converge")
            return out
        if spec["kind"] == "reference_clean":
            ok = abs(tau - TAU_REFERENCE_S) <= 0.02 * TAU_REFERENCE_S
        elif spec["kind"] == "reference":
            ok = abs(tau - TAU_REFERENCE_S) <= 2.1e-9
        else:
            ok = abs(tau - self.yb_tau_s) <= 0.05 * self.yb_tau_s
        if not ok:
            out.wrong = 1
            out.notes.append(f"{spec['kind']}: lifetime {tau!r} s out of band")
        return out


class Dynamics:
    """Ionization-rate chain on yb174_plus, then evolve over 16 times."""

    name = "dynamics"
    unit = "evolve calls"
    block_size = 64
    blocks_per_s = 7.0
    tail_pct = 95.0  # the 61st of 64 in a block
    times_s = np.logspace(-6, 1, 16)
    wavelength_nm = 245.426
    waist_m = 10e-6
    setup_code = (
        "from ybion import constants, photoion, rates, scheme\n"
        "yb = scheme.load_bundled_scheme('yb174_plus')\n"
        "n = photoion.effective_quantum_number(yb.energy('7p12'), "
        "yb.ionization_limit_cm1)\n"
        "e = constants.photon_energy_ev(245.426)\n"
        "photoion.cross_section(n, 1, e, model='burgess')\n"
        "photoion.cross_section(n, 1, e, model='peach')\n"
    )

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.scheme = scheme.load_bundled_scheme("yb174_plus")
        self.n_star = photoion.effective_quantum_number(
            self.scheme.energy("7p12"), self.scheme.ionization_limit_cm1)
        self.photon_ev = constants.photon_energy_ev(self.wavelength_nm)
        self.ground = min(self.scheme.levels, key=lambda lv: lv.energy_cm1).label

    def block(self, rng: np.random.Generator) -> list[dict]:
        n = 8 if self.smoke else self.block_size
        saturation = log_uniform(strata(rng, n), 1e-2, 1e4)
        power = log_uniform(strata(rng, n), 1e-6, 1e-3)
        models = [("burgess", "peach")[i % 2] for i in rng.permutation(n)]
        return [
            {"saturation": float(saturation[i]), "power_w": float(power[i]),
             "model": models[i]}
            for i in range(n)
        ]

    def run(self, spec: dict) -> Outcome:
        n_times = len(self.times_s)
        out = Outcome(units=n_times, attempted=n_times)
        try:
            sat = self.scheme.with_all_drives_saturated(spec["saturation"])
            p7p = rates.steady_state(rates.build_rate_matrix(sat))["7p12"]
            sigma = photoion.cross_section(
                self.n_star, 1, self.photon_ev, model=spec["model"])
            beam = photoion.GaussianBeam(
                power_w=spec["power_w"], waist_m=self.waist_m,
                wavelength_nm=self.wavelength_nm)
            rate = photoion.ionization_rate(p7p, sigma, photoion.photon_flux(beam))
            matrix = rates.build_rate_matrix(
                sat, include_ionization=True, ionization_rate=rate)
            p0 = rates.initial_population(matrix, self.ground)
        except Exception as exc:
            out.errors = n_times
            out.notes.append(_error_note(exc))
            out.digest = _sha("error", type(exc).__name__)
            return out
        parts = [repr((p7p, rate)).encode()]
        last_sink = 0.0
        for t in self.times_s:
            try:
                pv = rates.evolve(matrix, p0, float(t))
            except Exception as exc:
                out.errors += 1
                out.notes.append(_error_note(exc))
                parts.append(b"error")
                continue
            p = np.asarray(pv.populations)
            parts.append(p.tobytes())
            sink = float(p[matrix.sink_index])
            if (
                abs(p.sum() - 1.0) > 1e-9
                or p.min() < 0.0
                or sink < last_sink - 1e-12
            ):
                out.wrong += 1
                out.notes.append(f"evolve t={t:.3g} s: populations break the contract")
            last_sink = max(last_sink, sink)
        out.digest = _sha(*parts)
        return out


def chopped_mean_s(rate: float, duty: float, period: float, failure_prob: float) -> float:
    """Exact mean recorded event time of the chopped sequence, no horizon.

    Exposure X ~ Exp(rate) accumulates only in the first duty*period of each
    cycle; the start phase is uniform over the cycle; each ON window entered
    aborts the trial with failure_prob, and aborted trials record no event.
    Derived independently of ybion.mc by renewal at window starts. Tends to
    1/(rate*duty) when the chop period is short against it.
    """
    a = duty * period
    q = 1.0 - failure_prob

    def partial_mean(r):  # E[X; X <= r]
        return 1.0 / rate - np.exp(-rate * r) * (r + 1.0 / rate)

    ea = math.exp(-rate * a)
    p0 = q * (1.0 - ea) / (1.0 - q * ea)  # from a window start
    a0 = q * (partial_mean(a) + ea * period * p0) / (1.0 - q * ea)
    nodes = 4096
    phase = (np.arange(nodes) + 0.5) * (a / nodes)  # start inside an ON window
    r = a - phase
    er = np.exp(-rate * r)
    p_on = q * (1.0 - er) + q * er * p0
    a_on = q * partial_mean(r) + q * er * ((r + period - a) * p0 + a0)
    off = period - a  # start inside the OFF part: wait, then renew
    prob = p_on.mean() * a + p0 * off
    weighted = a_on.mean() * a + (off * off / 2.0) * p0 + a0 * off
    return float(weighted / prob)


class MonteCarlo:
    """Chopped-sequence batches alternating with verify-roundtrip batches."""

    name = "montecarlo"
    unit = "trials and verification seeds"
    block_size = 9
    blocks_per_s = 0.8
    # The slowest of 9 in a block, the largest chopped batch: the three
    # next slowest batches take about the same time, so a lower percentile
    # would switch between them with the seed.
    tail_pct = 100.0
    max_time_s = 10.0
    chop_hz = 50.0
    nu1_hz = 474e3
    setup_code = "from ybion import crystal, mc\n"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def block(self, rng: np.random.Generator) -> list[dict]:
        # Nine operations, chopped and verify alternating (5 + 4): an odd
        # block puts the median and p75 inside one ladder step instead of
        # in the gap between two.
        n_chop, n_verify = 5, 4
        steps = ladder(rng, n_chop)
        trials = log_uniform(steps, 1e3, 2e4)
        seeds = 200 + np.floor(ladder(rng, n_verify) * 1801)
        if self.smoke:
            trials, seeds = np.full(n_chop, 200.0), np.full(n_verify, 50.0)
        # One chopped batch in five has failure_prob > 0, always the one at
        # the middle trial step, so every block holds the same work. Its
        # rate and duty come from the upper part of their ranges: at low
        # rate*duty the window-by-window walk costs up to ~1.2 ms per trial,
        # and a single 2e4-trial batch would outlast the whole measurement.
        fail_slot = int(np.argmin(abs(steps - 0.5)))
        rate = 0.5 + 19.5 * strata(rng, n_chop)
        duty = 1.0 - strata(rng, n_chop)
        eta = 1.2 + 3.8 * strata(rng, n_verify)
        q2 = [(1.0, 2.0, 3.0)[i % 3] for i in rng.permutation(n_verify)]
        specs = []
        for i in range(n_chop):
            failure = 0.0
            r, d = float(rate[i]), float(duty[i])
            if i == fail_slot:
                failure = float(log_uniform(rng.random(), 1e-3, 5e-2))
                r, d = 2.0 + 18.0 * rng.random(), 1.0 - 0.5 * rng.random()
            specs.append({
                "kind": "chopped", "trials": int(round(trials[i])),
                "rate_per_s": r, "duty": d, "failure_prob": failure,
                "rng_seed": int(rng.integers(0, 2**31)),
            })
            if i < n_verify:
                specs.append({
                    "kind": "verify", "seeds": int(seeds[i]), "eta": float(eta[i]),
                    "q2": q2[i], "seed_base": int(rng.integers(0, 2**31 - 4096)),
                })
        return specs

    def run(self, spec: dict) -> Outcome:
        if spec["kind"] == "chopped":
            return self._chopped(spec)
        return self._verify(spec)

    def _chopped(self, spec: dict) -> Outcome:
        trials = spec["trials"]
        out = Outcome(units=trials, attempted=1)
        try:
            config = mc.SequenceConfig(
                rate_per_s=spec["rate_per_s"], max_time_s=self.max_time_s,
                rng_seed=spec["rng_seed"], chop_rate_hz=self.chop_hz,
                ionization_duty=spec["duty"], failure_prob=spec["failure_prob"],
            )
            runs = mc.simulate_ionization_times(config, trials)
            summary = mc.summarize_times(runs)
            text = mc.runs_to_text(runs)
        except Exception as exc:
            out.errors = 1
            out.notes.append(_error_note(exc))
            out.digest = _sha("error", type(exc).__name__)
            return out
        out.digest = _sha(text.encode())
        problems = []
        if summary.n_runs != trials or text.count("\n") != trials + 1:
            problems.append("run count does not match trials")
        exposure_rate = spec["rate_per_s"] * spec["duty"]
        # The mean is checked where the horizon cuts off a negligible share
        # of events (max_time >> 1/(R*duty)) and the sample is large enough
        # for a normal standard error.
        if exposure_rate * self.max_time_s >= 20.0 and summary.n_events >= 30:
            expected = chopped_mean_s(
                spec["rate_per_s"], spec["duty"], 1.0 / self.chop_hz,
                spec["failure_prob"])
            if summary.mean_s is None or summary.ci95_s is None:
                problems.append("summary lacks a mean")
            else:
                se = (summary.ci95_s[1] - summary.mean_s) / 1.96
                if abs(summary.mean_s - expected) > 4.0 * se:
                    problems.append(
                        f"mean {summary.mean_s:.6g} s is more than 4 SE "
                        f"({se:.3g} s) from {expected:.6g} s")
        if problems:
            out.wrong = 1
            out.notes.extend(problems)
        return out

    def _verify(self, spec: dict) -> Outcome:
        n = spec["seeds"]
        out = Outcome(units=n, attempted=1)
        try:
            trap = crystal.TrapAxis(nu1_hz=self.nu1_hz, eta=spec["eta"])
            charges = crystal.ChargePair(q2=spec["q2"])
            q2 = np.empty(n)
            for i in range(n):
                record = mc.synthesize_verification(
                    trap, charges, mc.REPORTED_NOISE, seed=spec["seed_base"] + i)
                q2[i] = mc.infer_from_verification(record).q2
        except Exception as exc:
            out.errors = 1
            out.notes.append(_error_note(exc))
            out.digest = _sha("error", type(exc).__name__)
            return out
        out.digest = _sha(q2.tobytes())
        if not np.isfinite(q2).all():
            out.wrong = 1
            out.notes.append("inferred q2 is not finite")
        return out


IN_PROCESS = {cls.name: cls for cls in (Lineshape, Dynamics, MonteCarlo)}
