"""End-to-end and per-layer benchmark of fracgl; see README.md."""
