"""Power substrate: per-cycle energy → load-current waveforms."""
