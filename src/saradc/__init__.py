"""Behavioral simulator and metrology toolchain for a 10-bit asynchronous
successive-approximation ADC."""

__version__ = "0.1.0"

from .config import (AdcConfig, ConfigError, DerivedConstants, derived_constants,
                     ideal_config, load_config, reference_defaults, serialize)
from .track_hold import ktc_sigma, ron_of_input
from .capdac import (Ladder, TradeReport, build_cap_array, compare_topologies,
                     inl_from_steps, transfer_thresholds)
from .timing import TimingBudget, build_budget, metastability_mc, t_hard
from .engine import (NoiseBudget, PowerReport, WaveformResult, convert_waveform,
                     ideal_quantizer_code, noise_budget, power_report)
from .analysis import (SpectrumMetrics, Tone, gen_coherent_tone, metrics, spectrum,
                       spectrum_csv)

__all__ = [
    "AdcConfig", "ConfigError", "DerivedConstants", "derived_constants",
    "ideal_config", "load_config", "reference_defaults", "serialize",
    "ktc_sigma", "ron_of_input",
    "Ladder", "TradeReport", "build_cap_array", "compare_topologies",
    "inl_from_steps", "transfer_thresholds",
    "TimingBudget", "build_budget", "metastability_mc", "t_hard",
    "NoiseBudget", "PowerReport", "WaveformResult", "convert_waveform",
    "ideal_quantizer_code", "noise_budget", "power_report",
    "SpectrumMetrics", "Tone", "gen_coherent_tone", "metrics", "spectrum",
    "spectrum_csv",
]
