"""Desk-scale simulator of a flux-trapping delta-sigma front end:
slab electrodynamics, the flux amplifier-integrator state machine,
NS junction transport, 1/f noise synthesis, and the modulator loop."""

__version__ = "0.1.0"
