"""Host-time benchmark for repro: see run.py."""
