"""bifurc: bifurcation dynamics of representation probes.

A desk-scale toolkit around one phenomenon: a K-prototype Gaussian-mixture
probe with learned precision beta undergoes a pitchfork bifurcation when
beta crosses 1/lambda_max(Cov(z)). The package provides the probe itself,
exact and finite-difference Hessian analysis at the symmetric collapsed
state, stochastic normal-form simulators (scalar pitchfork, coupled-mode
selection), an escape-time fitting lab whose dissipative tilt is a rate term
on the scalar pitchfork, the toy experiment suite, and a trajectory-shape
classifier, all behind one CLI.
"""

__version__ = "0.1.0"
