"""Universal discrete denoising toolkit.

Counting-based sliding-window denoising, a trained neural variant that
shares context statistics through one network, an informed
forward-backward baseline, and the simulation and evaluation plumbing
around them. Import the submodules: channel, core, dude, neural,
baselines, evaluation, io, cli, errors.
"""

__version__ = "0.1.0"
