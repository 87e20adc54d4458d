"""System configurations, derived parameters, and the study parameter sets.

A system is ``n`` identical servers fed by ``I`` Poisson job flows; a type-i
job holds ``server_need`` servers simultaneously for an Exp(service_rate)
duration.  Everything downstream (policies, simulator, bounds) consumes the
two value types defined here: :class:`SystemConfig` (ground truth) and
:class:`DerivedParams` (slack capacity, work variability, loads, subsystem
sequences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class ConfigError(ValueError):
    """Raised for invalid or unstable system configurations."""


@dataclass(frozen=True)
class JobTypeSpec:
    """One job type: Poisson arrivals, exponential service, fixed server need."""

    arrival_rate: float
    service_rate: float
    server_need: int

    def __post_init__(self):
        if not self.arrival_rate > 0:
            raise ConfigError(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if not self.service_rate > 0:
            raise ConfigError(f"service_rate must be > 0, got {self.service_rate}")
        if not (isinstance(self.server_need, int) and self.server_need >= 1):
            raise ConfigError(f"server_need must be an integer >= 1, got {self.server_need}")


@dataclass(frozen=True)
class SystemConfig:
    """Server count plus job types, sorted by nondecreasing server need."""

    n: int
    types: tuple[JobTypeSpec, ...]

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ConfigError(f"n must be an integer >= 1, got {self.n}")
        if not self.types:
            raise ConfigError("at least one job type is required")
        object.__setattr__(self, "types", tuple(self.types))
        needs = [t.server_need for t in self.types]
        if any(a > b for a, b in zip(needs, needs[1:])):
            raise ConfigError(f"server needs must be nondecreasing, got {needs}")
        if needs[-1] > self.n:
            raise ConfigError(f"largest server need {needs[-1]} exceeds n={self.n}")

    @property
    def num_types(self) -> int:
        return len(self.types)

    @property
    def arrival_rates(self) -> tuple[float, ...]:
        return tuple(t.arrival_rate for t in self.types)

    @property
    def service_rates(self) -> tuple[float, ...]:
        return tuple(t.service_rate for t in self.types)

    @property
    def server_needs(self) -> tuple[int, ...]:
        return tuple(t.server_need for t in self.types)

    def to_file_dict(self) -> dict:
        """Config-file form: ``{n, types: [{lambda, mu, l}]}``."""
        return {
            "n": self.n,
            "types": [
                {"lambda": t.arrival_rate, "mu": t.service_rate, "l": t.server_need}
                for t in self.types
            ],
        }

    @staticmethod
    def from_file_dict(doc: dict) -> "SystemConfig":
        """Inverse of :meth:`to_file_dict`.  ``n`` and ``l`` must be JSON
        integers and the rates JSON numbers (never booleans or strings);
        nothing is rounded or coerced."""
        try:
            types = tuple(
                JobTypeSpec(arrival_rate=_json_number(t, "lambda"),
                            service_rate=_json_number(t, "mu"),
                            server_need=_json_number(t, "l", integer=True))
                for t in doc["types"]
            )
            return SystemConfig(n=_json_number(doc, "n", integer=True),
                                types=types)
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc


def _json_number(doc: dict, key: str, integer: bool = False):
    """``doc[key]`` as an int (``integer``) or a float.  Any other JSON
    value, a bool included, raises ConfigError instead of being coerced."""
    value = doc[key]
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"malformed config: {key} must be a JSON "
                          f"{'integer' if integer else 'number'}, got {value!r}")
    return value if integer else float(value)


@dataclass(frozen=True)
class DerivedParams:
    """Scalars and per-subsystem sequences derived from a config.

    ``sub_delta[i-1]`` / ``sub_sigma2[i-1]`` are the slack capacity and work
    variability of the subsystem restricted to types 1..i (1-based i).
    """

    delta: float
    sigma2: float
    rho: tuple[float, ...]
    l_max: int
    lambda_total: float
    sub_delta: tuple[float, ...]
    sub_sigma2: tuple[float, ...]
    mu_min: float
    mu_max: float


def derive_params(config: SystemConfig) -> DerivedParams:
    """Compute slack capacity, work variability, loads and subsystem sequences.

    Rejects overloaded systems (slack capacity delta <= 0).  For multiserver
    jobs delta > 0 is necessary for stability, not sufficient: servers left
    idle by packing can make FCFS and SNF unstable at small delta.  Every
    l_max-work-conserving policy is stable when delta > l_max - 1.
    """
    n = config.n
    busy = 0.0
    var = 0.0
    sub_delta = []
    sub_sigma2 = []
    rho = []
    for t in config.types:
        busy += t.arrival_rate * t.server_need / t.service_rate
        var += t.arrival_rate * t.server_need**2 / t.service_rate**2
        sub_delta.append(n - busy)
        sub_sigma2.append(var)
        rho.append(t.arrival_rate * t.server_need / (n * t.service_rate))
    delta = n - busy
    if delta <= 0:
        raise ConfigError(f"overloaded system: slack capacity {delta} <= 0")
    mus = config.service_rates
    return DerivedParams(
        delta=delta,
        sigma2=var,
        rho=tuple(rho),
        l_max=config.server_needs[-1],
        lambda_total=sum(config.arrival_rates),
        sub_delta=tuple(sub_delta),
        sub_sigma2=tuple(sub_sigma2),
        mu_min=min(mus),
        mu_max=max(mus),
    )


class ParamSet(Enum):
    ONE = "one"
    TWO = "two"


# Service rates shared by both study parameter sets.
_STUDY_MU = (Fraction(1, 4), Fraction(1, 2), Fraction(1))


def make_param_set(which: ParamSet, n: int) -> SystemConfig:
    """Build one of the two simulation-study configurations at server count n.

    Both sets use mu = (0.25, 0.5, 1), needs (1, floor(log2 n), floor(sqrt n))
    and target slack 2*floor(sqrt n).  Set One splits the load evenly; Set Two
    gives the maximal-need type the small load n^-0.3.  Arrival rates are
    back-solved from the loads, so the realized slack equals the target
    exactly (Set One in rational arithmetic).
    """
    which = ParamSet(which)
    if n < 64:
        raise ConfigError(f"parameter sets require n >= 64, got {n}")
    needs = (1, int(math.log2(n)), math.isqrt(n))
    delta_target = 2 * math.isqrt(n)
    if which is ParamSet.ONE:
        # rho_i = (n - delta)/(3n), exact in rationals
        loads = [Fraction(n - delta_target, 3 * n)] * 3
    else:
        rho3 = n ** (-0.3)
        rho12 = (n - delta_target - n**0.7) / (2 * n)
        loads = [rho12, rho12, rho3]
    # a float load times a Fraction rate is float arithmetic throughout
    lambdas = [float(rho_i * n * mu_i / l_i)
               for rho_i, mu_i, l_i in zip(loads, _STUDY_MU, needs)]
    if any(lam <= 0 for lam in lambdas):
        raise ConfigError(f"back-solved arrival rates not all positive at n={n}: {lambdas}")
    return SystemConfig(
        n=n,
        types=tuple(
            JobTypeSpec(arrival_rate=lam, service_rate=float(mu), server_need=l)
            for lam, mu, l in zip(lambdas, _STUDY_MU, needs)
        ),
    )


EPSILON0 = 0.9  # the maximal-need condition holds iff l_max/delta <= EPSILON0


@dataclass(frozen=True)
class AssumptionReport:
    """Regime-condition ratios and their finite-n verdicts.

    ``a1_ratio``: delta*log(n)/sqrt(sigma2); smaller means heavier traffic,
    and the heavy-traffic condition holds iff it is <= 1.
    ``a2_ratio``: l_max/delta; holds iff it is <= ``EPSILON0``.
    ``a3_ratio``: rho_I over sqrt((delta*log n/sqrt(sigma2))*(l_max/n))*log n;
    the commonness condition holds iff it is >= 1.
    """

    a1_ratio: float
    a2_ratio: float
    a3_ratio: float
    holds: tuple[bool, bool, bool]


def check_assumptions(config: SystemConfig) -> AssumptionReport:
    """Evaluate the three regime conditions as finite-n ratio checks."""
    p = derive_params(config)
    n = config.n
    logn = math.log(n)
    a1 = p.delta * logn / math.sqrt(p.sigma2)
    a2 = p.l_max / p.delta
    a3_scale = math.sqrt(a1 * p.l_max / n) * logn
    a3 = p.rho[-1] / a3_scale if a3_scale > 0 else math.inf
    return AssumptionReport(a1_ratio=a1, a2_ratio=a2, a3_ratio=a3,
                            holds=(a1 <= 1.0, a2 <= EPSILON0, a3 >= 1.0))


@dataclass(frozen=True)
class CriticalIndices:
    """Critical subsystem indices, 1-based.

    ``i_star``: smallest i with delta_i <= sqrt(sigma2_i)/log n (heavy-regime
    proxy); ``i_star_1``: smallest i with delta_i <= sqrt(n*l_i)*log n.  Each
    falls back to I when no index qualifies at this finite n; the matching
    ``*_fallback`` flag records that.
    """

    i_star: int
    i_star_1: int
    i_star_fallback: bool
    i_star_1_fallback: bool


def critical_indices(config: SystemConfig) -> CriticalIndices:
    p = derive_params(config)
    n = config.n
    if n < 2:  # both thresholds divide by log n
        raise ConfigError(f"the closed-form bounds need n >= 2, got n={n}")
    logn = math.log(n)
    num = config.num_types
    i_star = None
    i_star_1 = None
    for i in range(1, num + 1):
        d_i = p.sub_delta[i - 1]
        if i_star is None and d_i <= math.sqrt(p.sub_sigma2[i - 1]) / logn:
            i_star = i
        if i_star_1 is None and d_i <= math.sqrt(n * config.server_needs[i - 1]) * logn:
            i_star_1 = i
    return CriticalIndices(
        i_star=i_star if i_star is not None else num,
        i_star_1=i_star_1 if i_star_1 is not None else num,
        i_star_fallback=i_star is None,
        i_star_1_fallback=i_star_1 is None,
    )
