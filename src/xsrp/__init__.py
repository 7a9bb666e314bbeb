"""Modular steered-response-power (SRP) sound source localization.

Submodules mirror the processing chain: geometry -> synth ->
features -> grids -> srp_core -> search -> multisource -> tracking,
composed by pipeline and exposed on the command line by cli.
"""

__version__ = "0.1.0"
