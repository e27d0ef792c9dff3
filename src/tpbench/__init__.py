"""tpbench: measure how feature-level traffic defenses degrade ML attackers.

Pipeline: packet traces (synthetic or pcap) -> windowed statistical features
-> defense transforms (polynomial smoothing, variance-scaled noise, the
constrained realistic mode) -> five from-scratch classifiers -> accuracy
sweep reports.
"""

from tpbench.adversarial import TransformSpec, savgol_coefficients
from tpbench.features import FEATURE_NAMES, WindowSpec, WindowTable, extract_series
from tpbench.harness import (
    ExperimentConfig,
    SweepReport,
    emit_report,
    load_config,
    run_experiment,
)
from tpbench.pcap import parse_pcap_with_stats
from tpbench.traffic import (
    PRESETS,
    ClassProfile,
    Protocol,
    Trace,
    builtin_profiles,
    generate_dataset,
    generate_trace,
)

__version__ = "0.1.0"
