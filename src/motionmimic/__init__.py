"""Keyframe motion mimicking: splines, datasets, a small network, and a joint plant."""

__version__ = "0.1.0"
