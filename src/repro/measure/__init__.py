"""Measurement substrate: scope captures, droop statistics, failure search."""
