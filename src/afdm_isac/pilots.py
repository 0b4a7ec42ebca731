"""Pilot sequence generators for superimposed-pilot AFDM.

Three families are provided:

* ``proposed_pilot`` — a chirp-corrected Zadoff-Chu comb whose spacing is set
  by the Doppler budget alone.  On an Nc = 2^p grid with c1 = 2^q/(2 Nc) the
  comb spacing is Q = 2^(q+r); each nonzero pilot carries a ZC value times a
  quadratic phase correction that cancels the chirp coupling, which makes the
  cyclic ambiguity function of the pilot exactly zero everywhere on the
  evaluated delay-Doppler region except the origin.  The zero region covers
  all Doppler offsets |nu| <= 2^q - 1 and all delays |tau| <= 1/(2 c1) - 1;
  at delay multiples of 1/(2 c1) the comb recurs with a full-height peak, so
  that is the design's unambiguous-delay limit (see
  ``proposed_delay_limit``).

* ``traditional_spi_pilot`` — the conventional superimposed comb whose
  spacing must exceed the full delay-Doppler footprint (spacing grows with
  the delay budget, so the pilot count collapses for long channels).

* ``single_pilot`` — all pilot energy on subcarrier 0.

All generators return a DAFT-domain vector with total energy sigma_p^2.  A
``PilotScheme`` names only a family and its power; ``pilot_vector`` reads
the rest from the config and the footprint (tau_m, nu_m) it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .daft import AfdmConfig
from .errors import ParameterError, check_cells, check_count, check_nonnegative, check_positive, check_type, is_integer

__all__ = [
    "PilotScheme",
    "zc_sequence",
    "select_c1_q",
    "proposed_pilot",
    "proposed_spacing",
    "proposed_delay_limit",
    "traditional_spi_pilot",
    "traditional_spacing",
    "single_pilot",
    "max_unambiguous_delay",
    "pilot_vector",
]


def zc_sequence(length: int, root: int = 1) -> np.ndarray:
    """Unit-modulus Zadoff-Chu sequence with zero periodic autocorrelation.

    Even lengths use exp(-j*pi*u*n^2/N); odd lengths use the standard
    exp(-j*pi*u*n*(n+1)/N) form so the sequence stays N-periodic.  The
    phase numerator is reduced mod 2N in integers, so a large root or length
    loses no precision to the float phase.  A ``length`` that is no integer
    >= 1, past numpy's array limit (``check_cells``), or a ``root`` that is
    no integer coprime with it: ``ParameterError``.
    """
    check_count(length, "ZC length")
    check_cells(int(length), "a ZC sequence", itemsize=16)
    if not is_integer(root) or math.gcd(length, root) != 1:
        raise ParameterError(f"ZC root {root!r} is not an integer coprime with length {length}")
    period = 2 * length
    n = np.arange(length, dtype=np.int64)
    quadratic = n * (n + length % 2) % period
    return np.exp((-1j * np.pi / length) * (quadratic * (root % period) % period))


def select_c1_q(nu_m: int, cfg: AfdmConfig) -> tuple[float, int]:
    """Pick the power-of-two chirp rate for a Doppler budget nu_m.

    Returns (c1, q) with c1 = 2^q/(2*Nc) and q the smallest integer such
    that 2^(q-1) < 2*nu_m + 1 <= 2^q.  Requires Nc to be a power of two.
    """
    check_count(nu_m, "nu_m", least=0)
    check_type(cfg, AfdmConfig, "cfg")
    _require_pow2(cfg.n_sub)
    target = 2 * nu_m + 1
    q = max(0, math.ceil(math.log2(target)))
    return (2**q) / (2.0 * cfg.n_sub), q


def proposed_spacing(cfg: AfdmConfig, r: int) -> tuple[int, int]:
    """Comb spacing and pilot count (Q, Np) for the chirp-corrected design."""
    check_count(r, "r", least=0)
    check_type(cfg, AfdmConfig, "cfg")
    p = _require_pow2(cfg.n_sub)
    q = _require_pow2(cfg.two_c1_n, what="2*c1*Nc")
    if not 0 <= r <= p - q:
        raise ParameterError(f"r must lie in [0, {p - q}], got {r}")
    spacing = cfg.two_c1_n * 2**r
    return spacing, cfg.n_sub // spacing


def proposed_delay_limit(cfg: AfdmConfig) -> int:
    """Largest delay with a guaranteed-zero pilot ambiguity function, 1/(2*c1) - 1, for K >= 1."""
    check_type(cfg, AfdmConfig, "cfg")
    check_count(cfg.two_c1_n, "2*c1*Nc")
    return cfg.n_sub // cfg.two_c1_n - 1


def proposed_pilot(cfg: AfdmConfig, pilot_power: float, r: int = 0, zc_root: int = 1) -> np.ndarray:
    """Chirp-corrected ZC comb pilot with an ideal cyclic ambiguity function.

    Nonzero entries sit at m = 0, Q, ..., (Np-1)*Q with
    x[m] = sqrt(sigma_p^2/Np) * z[m/Q] * exp(j*2*pi*psi[m]) and
    psi[m] = m^2*2^r/(2*Q*Nc) - c2*m^2 = m^2/(2*K*Nc) - c2*m^2 (Q = K*2^r).
    The first term is reduced in integers and the second read from
    ``c2_chirp``, the table ``idaft`` removes, so it cancels the transform's
    c2 chirp to rounding at any Nc.  ``proposed_spacing`` checks ``cfg``.
    """
    spacing, n_p = proposed_spacing(cfg, r)
    positions = np.arange(n_p) * spacing
    period = 2 * cfg.two_c1_n * cfg.n_sub
    correction = np.exp(2j * np.pi * (positions**2 % period) / period) * cfg.c2_chirp[positions]
    x = np.zeros(cfg.n_sub, dtype=np.complex128)
    x[positions] = (_amplitude(pilot_power, n_p) * zc_sequence(n_p, zc_root)) * correction
    return x


def traditional_spacing(cfg: AfdmConfig, tau_m: int, nu_m: int) -> tuple[int, int]:
    """Spacing and count (Q, Np) required by the full delay-Doppler footprint.

    Q = 2*c1*tau_m*Nc + 2*nu_m + 1 and Np = floor(Nc/Q), for integers tau_m, nu_m >= 0.
    """
    check_type(cfg, AfdmConfig, "cfg")
    check_count(tau_m, "tau_m", least=0)
    check_count(nu_m, "nu_m", least=0)
    spacing = cfg.two_c1_n * tau_m + 2 * nu_m + 1
    n_p = cfg.n_sub // spacing
    if n_p < 1:
        raise ParameterError(f"spacing {spacing} exceeds Nc={cfg.n_sub}: no pilot fits")
    return spacing, n_p


def traditional_spi_pilot(cfg: AfdmConfig, pilot_power: float, tau_m: int, nu_m: int) -> np.ndarray:
    """Conventional superimposed pilot comb for the footprint (tau_m, nu_m).

    Its spacing and count are ``traditional_spacing``'s, which checks
    ``cfg``.  The nonzero entries carry equal phases, which makes the comb's
    delay ambiguity outside its validity region explicit (delay offsets of
    one comb period collide coherently).  Within the validity region any
    unit-modulus phases give zero inter-pilot interference.
    """
    spacing, n_p = traditional_spacing(cfg, tau_m, nu_m)
    x = np.zeros(cfg.n_sub, dtype=np.complex128)
    x[np.arange(n_p) * spacing] = _amplitude(pilot_power, n_p)
    return x


def single_pilot(cfg: AfdmConfig, pilot_power: float) -> np.ndarray:
    """All pilot energy on subcarrier 0."""
    check_type(cfg, AfdmConfig, "cfg")
    x = np.zeros(cfg.n_sub, dtype=np.complex128)
    x[0] = _amplitude(pilot_power, 1)
    return x


def max_unambiguous_delay(spacing: int, nu_m: int, cfg: AfdmConfig) -> int:
    """Largest delay the conventional comb tolerates: floor((Q-2*nu_m-1)/K), K = 2*c1*Nc.

    K is the config's integer ``two_c1_n`` and the floor is taken in
    integers; K <= 0 bounds the delay by Nc - 1 alone.  Q >= 1 and nu_m >= 0 are integers.
    """
    check_count(spacing, "spacing")
    check_count(nu_m, "nu_m", least=0)
    check_type(cfg, AfdmConfig, "cfg")
    k = cfg.two_c1_n
    margin = spacing - 2 * nu_m - 1
    if margin < 0:
        return 0
    return margin // k if k > 0 else cfg.n_sub - 1


@dataclass(frozen=True)
class PilotScheme:
    """A pilot family and its power, positive and finite; nothing else.

    variant is one of "proposed", "traditional_spi", "single".  The family's
    other parameters come from the config and the delay-Doppler footprint
    that ``pilot_vector`` is given.
    """

    variant: str
    pilot_power: float

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in ("proposed", "traditional_spi", "single"):
            raise ParameterError(f"unknown pilot variant {self.variant!r}")
        check_positive(self.pilot_power, "pilot_power")


def pilot_vector(scheme: PilotScheme, cfg: AfdmConfig, tau_m: int, nu_m: int) -> np.ndarray:
    """The DAFT-domain pilot of ``scheme`` for the footprint (tau_m, nu_m).

    Only the traditional comb reads the footprint, but every family checks
    it: integers >= 0.  The proposed comb (r = 0) takes its spacing from the
    config's chirp rate.  ``scheme`` must be a ``PilotScheme``; each family
    checks ``cfg``.
    """
    check_type(scheme, PilotScheme, "scheme")
    check_count(tau_m, "tau_m", least=0)
    check_count(nu_m, "nu_m", least=0)
    if scheme.variant == "proposed":
        return proposed_pilot(cfg, scheme.pilot_power)
    if scheme.variant == "traditional_spi":
        return traditional_spi_pilot(cfg, scheme.pilot_power, tau_m, nu_m)
    return single_pilot(cfg, scheme.pilot_power)


def _amplitude(pilot_power: float, n_p: int) -> float:
    """Per-pilot amplitude sqrt(pilot_power/n_p) of a finite, non-negative pilot power."""
    check_nonnegative(pilot_power, "pilot_power")
    return math.sqrt(pilot_power / n_p)


def _require_pow2(value: int, what: str = "Nc") -> int:
    if value < 1 or value & (value - 1):
        raise ParameterError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1
