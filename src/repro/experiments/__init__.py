"""Experiment reproductions: one module per paper table/figure.

See DESIGN.md section 4 for the experiment index.  Every module exposes a
``run_*`` function returning a typed result and a ``report`` function that
renders the same rows/series the paper shows.
"""
