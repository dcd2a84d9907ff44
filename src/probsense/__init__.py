"""Probabilistic event-driven data acquisition simulator.

An analog-feature-driven probabilistic neuron gates an ADC so that sampling
density tracks event confidence; the harness quantifies reconstruction
fidelity (NMSE) and sample savings against regular continuous sampling.
"""

from .acquisition import (
    EvalReport,
    EventEval,
    SampleStream,
    nmse_freq,
    nmse_time,
    quantize_stream,
    reconstruct,
    sample_gated,
    sample_regular,
    savings,
)
from .activation import (
    ActivationConfig,
    ActivationTrace,
    average_rate,
    detection_latency,
    run_activation,
)
from .afe import AfeConfig, FeatureSignal, drive_voltage, extract_features
from .harness import (
    ExperimentConfig,
    SynthSurveySpec,
    load_survey,
    run_event,
    run_survey,
    sweep_slope,
    sweep_vin,
    synth_survey,
    write_survey,
)
from .pbit import (
    LfsrState,
    PNeuronConfig,
    TelegraphState,
    activation_probability,
    estimate_retention,
    lfsr_next,
    pbit_decide_iid,
    telegraph_step,
    v_ref_for_min_rate,
)
from .traces import SurveyDataset, Trace, load_trace, ricker, synth_event, upsample, write_trace

__version__ = "0.1.0"

__all__ = [
    "ActivationConfig",
    "ActivationTrace",
    "AfeConfig",
    "EvalReport",
    "EventEval",
    "ExperimentConfig",
    "FeatureSignal",
    "LfsrState",
    "PNeuronConfig",
    "SampleStream",
    "SurveyDataset",
    "SynthSurveySpec",
    "TelegraphState",
    "Trace",
    "activation_probability",
    "average_rate",
    "detection_latency",
    "drive_voltage",
    "estimate_retention",
    "extract_features",
    "lfsr_next",
    "load_survey",
    "load_trace",
    "nmse_freq",
    "nmse_time",
    "pbit_decide_iid",
    "quantize_stream",
    "reconstruct",
    "ricker",
    "run_activation",
    "run_event",
    "run_survey",
    "sample_gated",
    "sample_regular",
    "savings",
    "sweep_slope",
    "sweep_vin",
    "synth_event",
    "synth_survey",
    "telegraph_step",
    "upsample",
    "v_ref_for_min_rate",
    "write_survey",
    "write_trace",
]
