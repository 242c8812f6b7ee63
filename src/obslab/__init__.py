"""Numerical laboratory for observability of a coupled parabolic system."""
