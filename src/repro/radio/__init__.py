"""CC2420 PHY substrate: chip model, propagation, link model, medium."""

from repro.radio.cc2420 import (
    CCA_THRESHOLD_DBM,
    MAX_CHANNEL,
    MAX_POWER_LEVEL,
    MIN_CHANNEL,
    MIN_POWER_LEVEL,
    NOISE_FLOOR_DBM,
    NUM_CHANNELS,
    RSSI_OFFSET_DBM,
    SENSITIVITY_DBM,
    RadioConfig,
    channel_frequency_mhz,
    power_level_to_dbm,
)
from repro.radio.lqi import LQI_MAX, LQI_MIN, LqiModel, lqi_from_sinr
from repro.radio.medium import (
    RANGE_MARGIN_SIGMAS,
    FrameArrival,
    RadioMedium,
    Transceiver,
)
from repro.radio.mobility import (
    MOBILITY_KINDS,
    LinearDrift,
    MobilityDriver,
    MobilityModel,
    MobilityPlan,
    MobilitySpec,
    RandomWaypoint,
    Waypoint,
    install_mobility,
)
from repro.radio.modulation import (
    bit_error_rate,
    packet_reception_ratio,
    snr_db_for_prr,
)
from repro.radio.propagation import LogDistancePropagation, distance_matrix
from repro.radio.rssi import RssiModel, dbm_to_reading, reading_to_dbm
from repro.radio.spatial import SpatialGrid

__all__ = [
    "RadioConfig",
    "power_level_to_dbm",
    "channel_frequency_mhz",
    "MIN_POWER_LEVEL",
    "MAX_POWER_LEVEL",
    "MIN_CHANNEL",
    "MAX_CHANNEL",
    "NUM_CHANNELS",
    "RSSI_OFFSET_DBM",
    "SENSITIVITY_DBM",
    "NOISE_FLOOR_DBM",
    "CCA_THRESHOLD_DBM",
    "LogDistancePropagation",
    "distance_matrix",
    "bit_error_rate",
    "packet_reception_ratio",
    "snr_db_for_prr",
    "RssiModel",
    "dbm_to_reading",
    "reading_to_dbm",
    "LqiModel",
    "lqi_from_sinr",
    "LQI_MIN",
    "LQI_MAX",
    "RadioMedium",
    "MOBILITY_KINDS",
    "MobilitySpec",
    "MobilityPlan",
    "MobilityModel",
    "LinearDrift",
    "Waypoint",
    "RandomWaypoint",
    "MobilityDriver",
    "install_mobility",
    "SpatialGrid",
    "RANGE_MARGIN_SIGMAS",
    "Transceiver",
    "FrameArrival",
]
