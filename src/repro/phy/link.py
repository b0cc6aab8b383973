"""SNR -> BER -> PER link model for the modulations in play.

Textbook AWGN bit-error-rate formulas per constellation, a simple coding
gain for the convolutional code rates, and a packet-error rate from the
independent-bit-error approximation. Good enough to place rate/range
crossovers where the paper expects them; not a fading-channel study.
"""

from __future__ import annotations

import functools
import math

from ..dot11.rates import Modulation, PhyRate


class LinkModelError(ValueError):
    """Raised for invalid link-model inputs."""


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


#: Approximate coding gain (dB) of the 802.11 convolutional code by rate.
_CODING_GAIN_DB = {1.0: 0.0, 5 / 6: 3.0, 3 / 4: 3.5, 2 / 3: 4.0, 1 / 2: 5.0}


@functools.cache
def _coding_gain_db(coding_rate: float) -> float:
    """Gain of the nearest tabulated code rate; memoised, since the
    medium asks for the same handful of PHY rates on every decision."""
    best = min(_CODING_GAIN_DB, key=lambda rate: abs(rate - coding_rate))
    return _CODING_GAIN_DB[best]


def bit_error_rate(snr_db: float, modulation: Modulation,
                   coding_rate: float = 1.0) -> float:
    """AWGN BER at the given post-processing SNR."""
    effective_db = snr_db + _coding_gain_db(coding_rate)
    snr = 10.0 ** (effective_db / 10.0)
    if modulation is Modulation.BPSK:
        return _q_function(math.sqrt(2.0 * snr))
    if modulation is Modulation.QPSK:
        return _q_function(math.sqrt(snr))
    if modulation is Modulation.QAM16:
        return 0.75 * _q_function(math.sqrt(snr / 5.0))
    if modulation is Modulation.QAM64:
        return (7.0 / 12.0) * _q_function(math.sqrt(snr / 21.0))
    if modulation is Modulation.DBPSK:
        return 0.5 * math.exp(-snr)
    if modulation is Modulation.DQPSK:
        return 0.5 * math.exp(-snr / 2.0)
    if modulation is Modulation.CCK:
        # CCK-coded QPSK; the block code buys roughly 2 dB.
        return _q_function(math.sqrt(10.0 ** ((snr_db + 2.0) / 10.0)))
    if modulation is Modulation.GFSK:
        # Non-coherent binary FSK (the BLE 1 Mbps PHY).
        return 0.5 * math.exp(-snr / 2.0)
    raise LinkModelError(f"no BER model for {modulation}")


def packet_error_rate(snr_db: float, length_bytes: int, rate: PhyRate) -> float:
    """PER for a frame of ``length_bytes`` under independent bit errors."""
    if length_bytes < 0:
        raise LinkModelError(f"negative frame length {length_bytes}")
    ber = bit_error_rate(snr_db, rate.modulation, rate.coding_rate)
    if ber >= 1.0:
        return 1.0
    bits = 8 * length_bytes
    # log-domain to survive tiny BERs on long frames
    return 1.0 - math.exp(bits * math.log1p(-min(ber, 0.999999)))


def frame_delivered(snr_db: float, length_bytes: int, rate: PhyRate,
                    per_threshold: float = 0.1) -> bool:
    """Deterministic delivery rule used by the simulated medium.

    A frame is decodable when its PER is below ``per_threshold`` — the
    usual "sensitivity" definition (802.11 specifies sensitivity at 10 %
    PER). Deterministic rather than sampled so scenario traces are
    reproducible; the multi-device experiment injects collisions
    explicitly instead of relying on random channel losses.
    """
    if not 0.0 < per_threshold < 1.0:
        raise LinkModelError(f"threshold must be in (0,1), got {per_threshold}")
    return packet_error_rate(snr_db, length_bytes, rate) < per_threshold
