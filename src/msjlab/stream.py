"""Seeded job streams shared by coupled simulation runs.

A stream is the triple of sequences (interarrival draws, unit-rate service
draws, type labels) from which every system in a coupled run is driven.  All
randomness comes from the Philox-4x64-10 counter-based generator (numpy
implementation), keyed by ``(seed, role)`` with the job index as the counter
position, so streams are bit-reproducible across platforms and independent of
generation order.  Exponentials are produced by inverse CDF from the raw
uniforms, never by rejection, to keep the draw-count fixed.

Roles: 0 = interarrival, 1 = unit service, 2 = type label, 3 = auxiliary
resample draws used by preemptive policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemConfig

_ROLE_INTERARRIVAL = 0
_ROLE_SERVICE = 1
_ROLE_TYPE = 2
_ROLE_RESAMPLE = 3

_MASK64 = (1 << 64) - 1


def _role_generator(seed: int, role: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, role], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _exponential_from_uniform(u: np.ndarray) -> np.ndarray:
    # inverse CDF; u in [0, 1) so log1p(-u) is finite
    return -np.log1p(-u)


@dataclass
class JobStream:
    """Arrival epochs, unit-rate service draws and type labels for K jobs.

    ``type_idx`` is 0-based.  The realized service time of job k in a system
    with service rates mu is ``unit_service[k] / mu[type_idx[k]]``; the
    division is applied by the engine so systems sharing rates share draws.
    """

    seed: int
    arrival_times: np.ndarray
    unit_service: np.ndarray
    type_idx: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.arrival_times)


def build_job_stream(seed: int, num_jobs: int, config: SystemConfig) -> JobStream:
    """Generate the job stream for ``config``'s rates.

    Interarrivals are Exp(total rate); types are iid categorical with
    probability proportional to per-type arrival rates.
    """
    if num_jobs < 1:
        raise ValueError(f"num_jobs must be >= 1, got {num_jobs}")
    rates = np.asarray(config.arrival_rates, dtype=np.float64)
    total = float(rates.sum())
    probs = rates / total

    u_arr = _role_generator(seed, _ROLE_INTERARRIVAL).random(num_jobs)
    u_srv = _role_generator(seed, _ROLE_SERVICE).random(num_jobs)
    u_typ = _role_generator(seed, _ROLE_TYPE).random(num_jobs)

    interarrivals = _exponential_from_uniform(u_arr) / total
    arrival_times = np.cumsum(interarrivals)
    unit_service = _exponential_from_uniform(u_srv)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    type_idx = np.searchsorted(cum, u_typ, side="right").astype(np.int64)

    return JobStream(
        seed=seed,
        arrival_times=arrival_times,
        unit_service=unit_service,
        type_idx=type_idx,
    )


def resample_draws(seed: int):
    """Exp(1) draws for service-clock resampling (role 3), as plain floats.

    They come in blocks of 16,384 from the role-3 Philox stream, so the
    sequence is a pure function of the stream seed and a simulation that
    uses it stays deterministic.
    """
    gen = _role_generator(seed, _ROLE_RESAMPLE)
    while True:
        yield from _exponential_from_uniform(gen.random(16384)).tolist()
