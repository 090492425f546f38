"""conewave: desk-scale lab for bilinear interactions of cone-supported waves.

Red (forward-cone) and blue (backward-cone) waves are synthesized from sparse
frequency data on a torus and propagated spectrally.  On top of the synthesis
sit quadrature spacetime norms, light-ray tube geometry, a greedy weighted
tube cover, an exceptional-tube detector for blue waves, and the iterative ray
extraction that produces a partner-independent tube family outside of which
the bilinear product norm improves by a prescribed factor.
"""

__version__ = "0.1.0"
