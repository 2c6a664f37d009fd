"""Exact simulator and coding toolkit for advised nonadaptive query machines.

Everything runs over `fractions.Fraction`; no floats enter any probability,
weight, or code-length computation.

Names are imported from the modules that define them (`ttquery.model`,
`ttquery.compression`, `ttquery.adversary`, ...); importing the package
itself loads none of them.
"""

__version__ = "0.1.0"
