"""Property tests of the field-driven config layer, over every config class."""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mcmr import channels, micromotion, rb
from mcmr.cli import DepumpConfig
from mcmr.errors import ConfigError

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


def valid(cls, **fields):
    """Instances of ``cls`` built from the field strategies that pass its checks."""
    def build(**kwargs):
        try:
            return cls(**kwargs)
        except ConfigError:
            return None

    return st.builds(build, **fields).filter(lambda c: c is not None)


unit = st.floats(0.0, 1.0)
weights = st.tuples(*[st.floats(0.0, 10.0)] * 3)
gamma_t = st.floats(0.0, 0.5)
measurement = valid(channels.ChannelSpec, kind=st.just("measurement"),
                    gamma_t=gamma_t, polarization=weights)
reset = valid(channels.ChannelSpec, kind=st.just("reset"), gamma_t=gamma_t,
              polarization=weights, dark_branching=unit)
spam = valid(rb.SpamModel, prep_flip=unit, prep_leak=unit,
             dark_to_bright=unit, bright_to_dark=unit)
focus = valid(rb.FocusModel, prep_flip=unit, dark_to_bright=unit,
              bright_to_dark=unit, depump_per_measure=unit, reset_error=unit)
probe = valid(rb.ProbeSpec, measurement=st.none() | measurement,
              reset=st.none() | reset, gate_depolarizing=st.floats(0.0, 4.0 / 3.0),
              spam=spam)
labels = st.text("ab-_09", min_size=1, max_size=6)
experiment = valid(
    rb.ExperimentConfig, name=labels,
    interleaved_ops=st.lists(st.sampled_from(rb.INTERLEAVED_OPS), max_size=4).map(tuple),
    initial_focus_state=st.sampled_from((0, 1)),
    probes=st.dictionaries(labels, probe, min_size=1, max_size=2), focus=focus,
    lengths=st.lists(st.integers(1, 200), min_size=1, max_size=4).map(tuple),
    sequences_per_length=st.integers(1, 60), shots=st.integers(1, 10 ** 4),
    balanced=st.booleans())
positive = st.floats(1e-9, 1e9)
trap = valid(micromotion.TrapBeamConfig, rf_frequency_hz=positive,
             secular_frequency_hz=positive, linewidth_hz=positive,
             wavelength_m=positive, beam_angle_deg=st.floats(-360.0, 360.0),
             displacement_m=st.floats(0.0, 1e-3))
depump = valid(DepumpConfig, gamma_per_s=positive,
               times_s=st.none() | st.lists(st.floats(0.0, 10.0), min_size=3,
                                            max_size=6).map(tuple),
               t_max_s=st.none() | positive, points=st.integers(3, 50),
               shots=st.integers(1, 10 ** 4), free_amplitude=st.booleans())

CONFIGS = {
    channels.ChannelSpec: measurement | reset,
    rb.SpamModel: spam,
    rb.FocusModel: focus,
    rb.ProbeSpec: probe,
    rb.ExperimentConfig: experiment,
    micromotion.TrapBeamConfig: trap,
    DepumpConfig: depump,
}


@PROPERTY_SETTINGS
@given(st.one_of(*CONFIGS.values()))
def test_json_round_trip_of_every_config_class(config):
    data = json.loads(json.dumps(config.to_dict()))
    assert type(config).from_dict(data) == config


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@PROPERTY_SETTINGS
@given(st.data())
def test_arbitrary_json_at_any_key_raises_only_config_error(data):
    cls = data.draw(st.sampled_from(list(CONFIGS)), label="class")
    base = data.draw(CONFIGS[cls], label="valid config").to_dict()
    keys = [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]
    key = data.draw(st.sampled_from(keys), label="key")
    value = data.draw(json_values, label="value")
    for payload in ({**base, key: value}, value):
        try:
            cls.from_dict(payload)
        except ConfigError:
            pass
