"""Tests for the RunSpec JSON wire format (PR 8 gateway transport).

The contract: ``RunSpec.from_json_dict(spec.to_json_dict())`` is the
identity — field-equal and therefore *digest*-equal, because the gateway
caches under ``spec.digest()`` and a spec that decoded to a different
digest would poison the shared cache.  Anything that cannot make the
round trip bit-for-bit is rejected with
:class:`~repro.core.errors.ConfigurationError` at encode or decode time,
never silently degraded.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynch.adversary import FAULT_PROFILES
from repro.core import RingConfiguration
from repro.core.errors import ConfigurationError
from repro.runtime import RunSpec
from repro.runtime.spec import ENGINES, MESSAGE_MODES, SCHEDULERS, SYNC_ENGINES
from repro.topology import TopologySpec

RING = RingConfiguration.oriented((1, 0, 1, 1, 0))

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=3),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.tuples(inner, inner), max_leaves=4)
#: ``churn``/``path_rate`` as ints or floats: ``1`` and ``1.0`` build one spec.
_UNIT = st.one_of(st.sampled_from((0, 1)), st.floats(0.0, 1.0))


@st.composite
def specs(draw) -> RunSpec:
    """Any valid spec, of any engine, with every knob it admits."""
    n = draw(st.integers(1, 5))
    ring = RingConfiguration(
        tuple(draw(st.lists(_VALUES, min_size=n, max_size=n))),
        tuple(draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))),
    )
    engine = draw(st.sampled_from(ENGINES))
    optional_int = st.none() | st.integers(0, 2**31)
    knobs = dict(
        params=draw(st.dictionaries(st.text(min_size=1, max_size=3), _VALUES, max_size=3)),
        budget=draw(optional_int),
    )
    if engine == "async":
        scheduler = draw(st.sampled_from((None,) + SCHEDULERS))
        knobs["scheduler"] = scheduler
        if scheduler in ("random", "bounded-delay"):
            knobs["scheduler_seed"] = draw(st.integers(0, 2**31))
        if scheduler == "bounded-delay":
            knobs["delay_bound"] = draw(st.integers(1, 32))
        profile = draw(st.none() | st.sampled_from(sorted(FAULT_PROFILES)))
        if profile is not None:
            knobs["fault_profile"] = profile
            knobs["fault_seed"] = draw(st.integers(0, 2**31))
            knobs["fault_horizon"] = draw(optional_int)
    if engine in SYNC_ENGINES:
        knobs["wakeup"] = draw(
            st.none() | st.lists(st.integers(0, 9), min_size=n, max_size=n).map(tuple)
        )
    if engine != "sync-batch":
        knobs["record"] = draw(st.booleans())
        knobs["message_mode"] = draw(st.sampled_from(MESSAGE_MODES))
    if engine == "sync":
        knobs["topology"] = draw(
            st.none()
            | st.builds(
                TopologySpec,
                kind=st.just("dynamic-ring"),
                seed=st.integers(0, 2**31),
                churn=_UNIT.filter(lambda churn: churn > 0),
                path_rate=_UNIT,
            )
        )
    algorithm = "sync-and" if engine in SYNC_ENGINES else "input-distribution"
    return RunSpec.make(engine=engine, ring=ring, algorithm=algorithm, **knobs)


def _roundtrip(spec: RunSpec) -> RunSpec:
    # Through actual JSON text, not just the dict: the wire is strings.
    return RunSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))


class TestRoundTrip:
    def test_minimal_spec(self):
        spec = RunSpec.make(engine="sync", ring=RING, algorithm="sync-and")
        clone = _roundtrip(spec)
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_sync_fields_populated(self):
        spec = RunSpec.make(
            engine="sync",
            ring=RING,
            algorithm="sync-and",
            params={"threshold": 2, "label": "x", "ratio": 0.5, "flag": True},
            wakeup=(0, 2, 1, 0, 3),
            budget=10_000,
            record=True,
        )
        clone = _roundtrip(spec)
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_async_fields_populated(self):
        spec = RunSpec.make(
            engine="async",
            ring=RING,
            algorithm="async-and",
            scheduler="bounded-delay",
            scheduler_seed=1234,
            delay_bound=5,
            budget=10_000,
        )
        clone = _roundtrip(spec)
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_fault_coordinates(self):
        spec = RunSpec.make(
            engine="async",
            ring=RING,
            algorithm="async-and",
            scheduler="random",
            scheduler_seed=7,
            fault_profile="crash",
            fault_seed=99,
            fault_horizon=50,
        )
        clone = _roundtrip(spec)
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_tuple_valued_inputs_and_params(self):
        """Nested tuples survive via the explicit tagging (JSON has no tuple)."""
        ring = RingConfiguration.oriented(((1, "a"), (0, "b"), (1, (2, 3))))
        spec = RunSpec.make(
            engine="sync",
            ring=ring,
            algorithm="sync-and",
            params={"shape": (1, (2, "x"), None)},
        )
        clone = _roundtrip(spec)
        assert clone == spec
        assert clone.ring.inputs == ring.inputs  # tuples, not lists
        assert clone.params_dict["shape"] == (1, (2, "x"), None)
        assert clone.digest() == spec.digest()

    def test_wire_is_pure_json(self):
        spec = RunSpec.make(
            engine="sync", ring=RING, algorithm="sync-and", params={"k": (1, 2)}
        )
        text = json.dumps(spec.to_json_dict())
        assert '"__t__"' in text  # tuples travel tagged, not as bare lists


class TestRoundTripProperty:
    """A spec's wire form survives the round trip exactly, so it keeps its
    digest on both sides of the gateway; and a knob equal to its twin
    (``churn=1`` and ``1.0``) writes the twin's wire form."""

    @given(specs())
    @settings(max_examples=200, deadline=None)
    def test_every_spec_keeps_equality_and_digest(self, spec):
        clone = _roundtrip(spec)
        assert clone == spec
        assert clone.to_json_dict() == spec.to_json_dict()
        assert clone.structural_digest() == spec.structural_digest()

    @given(specs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_bool_or_float_bit_is_refused(self, spec, data):
        """``True`` or ``1.0`` as an orientation bit would build a ring equal
        to its int twin whose wire form, and digest, differ: refused by the
        ring and on the wire."""
        bits = list(spec.ring.orientations)
        i = data.draw(st.integers(0, len(bits) - 1))
        bits[i] = data.draw(st.sampled_from((bool(bits[i]), float(bits[i]))))
        with pytest.raises(ConfigurationError, match="orientation bits must be the ints"):
            spec.ring.with_orientations(bits)
        wire = spec.to_json_dict()
        wire["ring"]["orientations"] = bits
        with pytest.raises(ConfigurationError, match="orientation bits must be the ints"):
            RunSpec.from_json_dict(json.loads(json.dumps(wire)))

    def test_int_churn_is_the_float_spec(self):
        as_ints = TopologySpec(kind="dynamic-ring", seed=3, churn=1, path_rate=0)
        as_floats = TopologySpec(kind="dynamic-ring", seed=3, churn=1.0, path_rate=0.0)
        spec = RunSpec.make(
            engine="sync", ring=RING, algorithm="dynamic-counting", topology=as_ints
        )
        assert spec == spec.with_(topology=as_floats)
        assert spec.digest() == spec.with_(topology=as_floats).digest()
        assert _roundtrip(spec).digest() == spec.digest()


class TestEncodeRejections:
    def test_non_transportable_param_value(self):
        spec = RunSpec.make(
            engine="sync", ring=RING, algorithm="sync-and", params={"bad": [1, 2]}
        )
        with pytest.raises(ConfigurationError, match="not JSON-transportable"):
            spec.to_json_dict()

    def test_non_transportable_ring_input(self):
        ring = RingConfiguration.oriented((1, 0, {"x": 1}))
        spec = RunSpec.make(engine="sync", ring=ring, algorithm="sync-and")
        with pytest.raises(ConfigurationError, match="not JSON-transportable"):
            spec.to_json_dict()


class TestDecodeRejections:
    def _base(self):
        return RunSpec.make(
            engine="sync", ring=RING, algorithm="sync-and"
        ).to_json_dict()

    def test_not_an_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            RunSpec.from_json_dict([1, 2, 3])

    def test_unknown_field(self):
        data = self._base()
        data["frobnicate"] = 1
        with pytest.raises(ConfigurationError, match="unknown RunSpec fields"):
            RunSpec.from_json_dict(data)

    @pytest.mark.parametrize("missing", ["engine", "ring", "algorithm"])
    def test_missing_required_field(self, missing):
        data = self._base()
        del data[missing]
        with pytest.raises(ConfigurationError, match=f"missing the '{missing}'"):
            RunSpec.from_json_dict(data)

    def test_malformed_ring(self):
        data = self._base()
        data["ring"] = {"inputs": [1, 0]}  # no orientations
        with pytest.raises(ConfigurationError, match="'ring'"):
            RunSpec.from_json_dict(data)
        data["ring"] = {"inputs": [1], "orientations": [1], "extra": 1}
        with pytest.raises(ConfigurationError, match="'ring'"):
            RunSpec.from_json_dict(data)

    @pytest.mark.parametrize(
        "ring",
        [
            {"inputs": [1, 0], "orientations": ["x", 1]},
            {"inputs": 5, "orientations": [1]},
            {"inputs": [1], "orientations": None},
        ],
    )
    def test_ring_of_the_wrong_shape_is_a_configuration_error(self, ring):
        """Not a ``ValueError``/``TypeError``: the gateway answers 400, not 500."""
        data = self._base()
        data["ring"] = ring
        with pytest.raises(ConfigurationError, match="'ring'|orientation bits"):
            RunSpec.from_json_dict(data)

    def test_malformed_params(self):
        data = self._base()
        data["params"] = [["key"]]  # not a pair
        with pytest.raises(ConfigurationError, match="'params'"):
            RunSpec.from_json_dict(data)

    def test_bare_list_value_rejected(self):
        """Untagged lists are ambiguous (list vs tuple) — never guessed at."""
        data = self._base()
        data["params"] = [["shape", [1, 2]]]
        with pytest.raises(ConfigurationError, match="undecodable"):
            RunSpec.from_json_dict(data)

    def test_unknown_tag_rejected(self):
        data = self._base()
        data["params"] = [["shape", {"__t__": "set", "v": [1]}]]
        with pytest.raises(ConfigurationError, match="undecodable"):
            RunSpec.from_json_dict(data)


class TestExactTypes:
    """A knob equal to its int twin but of another type would write
    another wire form, and so another digest: it is refused, in the
    constructor and on the wire (the gateway answers 400)."""

    def _wire(self, **fields):
        data = RunSpec.make(
            engine="async",
            ring=RING,
            algorithm="input-distribution",
            scheduler="random",
            scheduler_seed=1,
        ).to_json_dict()
        data.update(fields)
        return data

    @pytest.mark.parametrize(
        "field,value",
        [
            ("budget", 100.0),
            ("budget", True),
            ("scheduler_seed", True),
            ("scheduler_seed", 1.0),
            ("fault_seed", True),
            ("delay_bound", 8.0),
        ],
    )
    def test_non_int_knob_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an int"):
            RunSpec.from_json_dict(self._wire(**{field: value}))

    def test_non_int_knob_rejected_by_the_constructor(self):
        with pytest.raises(ConfigurationError, match="budget must be an int"):
            RunSpec.make(engine="sync", ring=RING, algorithm="sync-and", budget=100.0)
        with pytest.raises(ConfigurationError, match="fault_horizon must be an int"):
            RunSpec.make(
                engine="async",
                ring=RING,
                algorithm="input-distribution",
                fault_profile="crash",
                fault_seed=1,
                fault_horizon=True,
            )

    def test_non_string_params_key_rejected(self):
        """``str()`` would decode ``1`` to ``"1"``: another spec, another digest."""
        with pytest.raises(ConfigurationError, match="params keys must be strings"):
            RunSpec.make(engine="sync", ring=RING, algorithm="sync-and", params={1: 2})
        with pytest.raises(ConfigurationError, match="params keys must be strings"):
            RunSpec.from_json_dict(self._wire(params=[[1, 2]]))

    def test_string_record_rejected(self):
        """``"false"`` is not ``false``: no ``bool()`` coercion."""
        with pytest.raises(ConfigurationError, match="record must be a bool"):
            RunSpec.from_json_dict(self._wire(record="false"))
        with pytest.raises(ConfigurationError, match="record must be a bool"):
            RunSpec.from_json_dict(self._wire(record=1))

    @pytest.mark.parametrize("wakeup", [[0, 1.0, 0, 0, 0], [0, "1", 0, 0, 0], [0, True, 0, 0, 0]])
    def test_non_int_wakeup_rejected(self, wakeup):
        data = RunSpec.make(engine="sync", ring=RING, algorithm="sync-and").to_json_dict()
        data["wakeup"] = wakeup
        with pytest.raises(ConfigurationError, match="wakeup"):
            RunSpec.from_json_dict(data)

    def test_non_number_churn_rejected(self):
        data = RunSpec.make(
            engine="sync",
            ring=RING,
            algorithm="dynamic-counting",
            topology=TopologySpec(kind="dynamic-ring", seed=3),
        ).to_json_dict()
        data["topology"]["churn"] = "1"
        with pytest.raises(ConfigurationError, match="churn must be a number"):
            RunSpec.from_json_dict(data)
        data["topology"]["churn"] = True
        with pytest.raises(ConfigurationError, match="churn must be a number"):
            RunSpec.from_json_dict(data)

    def test_keep_log_key_is_an_unknown_field(self):
        with pytest.raises(ConfigurationError, match=r"unknown RunSpec fields \['keep_log'\]"):
            RunSpec.from_json_dict(self._wire(keep_log=True))
