"""Probabilistic event-driven data acquisition simulator.

An analog-feature-driven probabilistic neuron gates an ADC so that sampling
density tracks event confidence; the harness quantifies reconstruction
fidelity (NMSE) and sample savings against regular continuous sampling.
"""

__version__ = "0.1.0"
