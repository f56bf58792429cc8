#!/usr/bin/env python3
"""Calibrating noise to a protected pair of Gaussian query models.

Two query distributions share the covariance [[22, -6], [-6, 13]] and
have means one unit apart in each coordinate. We compare what each
mechanism must add to make the pair (epsilon, delta)-indistinguishable:

  * expected-value Gaussian: isotropic noise sized to the mean gap;
  * eigenvector Gaussian:   per-direction noise, crediting the data's
                            own variance along each eigenvector;
  * directional + adversarial uncertainty: scalar noise only along the
                            mean-gap direction, minus the variance the
                            data already has there.
"""

import numpy as np

from distpriv.mechanisms import (
    apply_batch,
    calibrate_expm,
    dau_plan,
    eig_plan,
    no_noise_check,
)
from distpriv.model import (
    GaussianModel,
    PairFamily,
    PrivacyParams,
    SecretLabel,
    check_assumptions,
)
from distpriv.seeding import derive_rng

cov = np.array([[22.0, -6.0], [-6.0, 13.0]])
lab_lo = SecretLabel("high-earner-share", 0.45)
lab_hi = SecretLabel("high-earner-share", 0.55)
family = PairFamily(
    catalog={
        lab_lo: GaussianModel([100.0, 101.0], cov, 1000),
        lab_hi: GaussianModel([99.0, 102.0], cov, 1000),
    },
    pairs=[(lab_lo, lab_hi), (lab_hi, lab_lo)],
)
params = PrivacyParams(epsilon=1.0, delta=0.001)

print("Mean gap:", family.catalog[lab_lo].mean - family.catalog[lab_hi].mean)
print("Shared covariance:\n", cov)
print()

print("Assumption measurements:", check_assumptions(family))
print("Is the data's own randomness enough (no added noise)?",
      no_noise_check(family, params))
print()

expm = calibrate_expm(family, params, "gaussian")
print(f"Expected-value Gaussian: sigma^2 = {expm.sigma**2:.2f} in every direction")

eig = eig_plan(family, params)
for var, vec in zip(
    eig.provenance["sigma_sq"],
    ((np.array([2.0, -1.0]) / np.sqrt(5)), (np.array([1.0, 2.0]) / np.sqrt(5))),
):
    print(f"Eigenvector Gaussian:    sigma^2 = {var:6.2f} along {np.round(vec, 3)}")

dau = dau_plan(family, params)
print(f"Directional + uncertainty: sigma^2 = {dau.scale**2:.2f} along "
      f"{np.round(dau.direction, 3)} only")
print()

rng = derive_rng(0, "demo-noise-compare")
query = np.array([100.0, 101.0])
trials = 20_000
for name, plan in (("expected-value", expm), ("eigenvector", eig), ("directional+au", dau)):
    noised = apply_batch(plan, np.tile(query, (trials, 1)), rng)
    err = np.linalg.norm(noised - query, axis=1).mean()
    print(f"mean L2 error, {name:<16}: {err:7.3f}")
print()
print("Exploiting the query's own covariance cuts the added error several-fold")
print("at the same privacy budget.")
