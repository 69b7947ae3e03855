"""End-to-end, layer-attributed benchmark (see run.py)."""
