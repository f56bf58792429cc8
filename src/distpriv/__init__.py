"""Distribution-privacy mechanisms for protecting global dataset properties.

The package calibrates noise so an attacker observing a released
statistic cannot tell which of two protected data distributions produced
it: exact bottleneck-transport calibration for general discrete
distributions, expected-value and direction-aware Gaussian calibrations
for translation-like families, adversarial-uncertainty variants that
credit the data's own randomness, relaxed budget accounting for
imperfect modeling assumptions, plus a property-inference attack
benchmark on census-style tables.

Each name is imported from the module that defines it, for example
`from distpriv.transport import winf_distance`; the package itself
holds only `__version__`. Values that hold arrays (models, families,
plans, distributions, classifiers, assumption reports) compare and
hash by identity.
"""

__version__ = "0.1.0"
