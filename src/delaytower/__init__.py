"""Delay towers: chained delay-function proofs as proof of elapsed time,
validator-side acceptance and rotation, and a deterministic network simulator.
"""
