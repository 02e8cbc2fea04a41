"""
tbraid: the Artin braid group, its quotient by commutators of transversal
half-twists, exact normal forms through a central-extension coordinate
group, and prime-element checkers for groups acted on by the quotient.
"""

__version__ = "0.1.0"
