"""Workload substrate: manual stressmarks and synthetic benchmark suites."""
