"""Operating-system interference substrate: ticks, jitter, placement."""
