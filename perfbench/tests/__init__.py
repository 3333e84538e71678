"""Tests of the benchmark's oracles and plans."""
