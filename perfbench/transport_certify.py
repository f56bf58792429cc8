"""transport-certify: exact W-infinity, the delta radius, and its certificate."""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path
from typing import List

import oracles
from common import RoundResult
from inputs import TRANSPORT_DELTA, transport_instances


class TransportCertify:
    setup_repeats = 9

    def __init__(self, seed: int, workdir: Path):
        self.raw = transport_instances(seed)
        self.first = None

    def setup(self) -> None:
        """Build every instance as the program's distributions."""
        from distpriv.transport import DiscreteDistribution

        self.pairs = [
            (DiscreteDistribution(r.points_mu, r.mass_mu, r.den),
             DiscreteDistribution(r.points_nu, r.mass_nu, r.den))
            for r in self.raw
        ]

    def run_round(self, index: int) -> RoundResult:
        from distpriv.transport import min_w_for_delta, winf_distance

        result = RoundResult(stages={"winf_s": 0.0, "min_w_s": 0.0, "certify_s": 0.0},
                             attempted=3 * len(self.raw))
        answers = []
        clock = time.perf_counter
        for raw, (mu, nu) in zip(self.raw, self.pairs):
            got = {}
            for stage, solve in (
                ("winf_s", lambda: winf_distance(mu, nu)),
                ("min_w_s", lambda: min_w_for_delta(mu, nu, TRANSPORT_DELTA)),
                ("certify_s", lambda: _certify(mu, nu, got["min_w_s"])),
            ):
                if stage == "certify_s" and "min_w_s" not in got:
                    result.failed += 1
                    continue
                start = clock()
                try:
                    got[stage] = solve()
                except Exception as exc:
                    result.failed += 1
                    result.problems.append(f"{raw.name} {stage[:-2]} raised {exc!r}")
                finally:
                    result.stages[stage] += clock() - start
            answers.append(got)
        for raw, got in zip(self.raw, answers):
            result.problems += check_instance(raw, got)
        summary = [(g.get("winf_s"), g.get("min_w_s")) for g in answers]
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            result.problems.append(f"round {index} thresholds differ from round 0")
        return result


def _certify(mu, nu, w):
    """The (w, delta)-closeness decision plus the program's own re-check."""
    from distpriv.transport import is_w_delta_close

    close, cert = is_w_delta_close(mu, nu, w, TRANSPORT_DELTA)
    verified = cert.verify(mu, nu, w, TRANSPORT_DELTA) if cert is not None else False
    return close, cert, verified


def check_instance(raw, got: dict) -> List[str]:
    problems = []
    dist = oracles.pairwise_l1(raw.points_mu, raw.points_nu)
    delta = Fraction(TRANSPORT_DELTA)
    if "winf_s" in got:
        w = got["winf_s"]
        problems += oracles.check_threshold(raw.mass_mu, raw.mass_nu, dist, w, Fraction(1),
                                            f"{raw.name} winf")
        if raw.points_mu.shape[1] == 1:
            gap = oracles.winf_1d(raw.points_mu, [Fraction(m, raw.den) for m in raw.mass_mu],
                                  raw.points_nu, [Fraction(m, raw.den) for m in raw.mass_nu])
            if gap != w:
                problems.append(f"{raw.name} winf {w!r} != largest quantile gap {gap!r}")
    if "min_w_s" in got:
        wd = got["min_w_s"]
        problems += oracles.check_threshold(raw.mass_mu, raw.mass_nu, dist, wd, 1 - delta,
                                            f"{raw.name} min_w")
        if "winf_s" in got and wd > got["winf_s"]:
            problems.append(f"{raw.name} delta radius {wd!r} exceeds winf {got['winf_s']!r}")
    if "certify_s" in got:
        close, cert, verified = got["certify_s"]
        if not close or cert is None or not verified:
            problems.append(f"{raw.name} certify: close={close} verified={verified}")
        else:
            problems += oracles.check_certificate(
                cert.coupling_edges, cert.retained_mass, cert.max_retained_distance,
                raw.points_mu, [Fraction(m, raw.den) for m in raw.mass_mu],
                raw.points_nu, [Fraction(m, raw.den) for m in raw.mass_nu],
                got["min_w_s"], delta, f"{raw.name} certificate")
    return problems
