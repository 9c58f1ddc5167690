"""Analysis helpers: spectra and report tables."""
