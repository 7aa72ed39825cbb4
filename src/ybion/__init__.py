"""ybion: resonant photoionization of a trapped Yb+ ion, end to end.

The package models the promotion of a single trapped, laser-cooled
ytterbium ion to its doubly charged state and the measurements that prove
it happened:

  * scheme    -- atomic level/decay/drive data and its file format
  * rates     -- rate-equation population dynamics and steady states
  * photoion  -- beam flux, ionization rate, quantum-defect cross sections
  * crystal   -- two-ion mixed-charge crystal statics and normal modes
  * spectro   -- frequency scans, Lorentzian fits, lifetime extraction
  * mc        -- chopped-sequence Monte Carlo and synthetic verification
  * cli       -- `ybion` command-line front end

Everything numerical is deterministic given explicit seeds.

Import what you need from the submodules (``from ybion.rates import
steady_state``); the package root holds only ``__version__``. numpy is
the only runtime dependency; no module imports scipy. numpy loads on
first use (see ybion._numpy): ``ybion --version``, ``crystal``,
``ionize-rate`` and ``xsec`` never load it.
"""

__version__ = "0.1.0"
