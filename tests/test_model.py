from datetime import datetime, timezone
import math

import pytest

from gasinertia.model import (
    Diagnostics,
    Element,
    ElementKind,
    ModelError,
    Network,
    Node,
    PipeGeometry,
    StateFrame,
    derived_area,
    validate_normal_density,
)

UTC = timezone.utc


def make_net() -> Network:
    nodes = [Node("n0"), Node("n1"), Node("n2")]
    elements = [
        Element("p0", ElementKind.PIPE, "n0", "n1", PipeGeometry(1000.0, 0.5)),
        Element("v0", ElementKind.VALVE, "n1", "n2"),
    ]
    return Network.build(nodes, elements)


class TestGeometry:
    def test_area(self):
        geom = PipeGeometry(length_m=1000.0, diameter_m=0.9)
        assert geom.area_m2 == pytest.approx(math.pi * 0.81 / 4.0, rel=1e-15)
        assert derived_area(geom) == geom.area_m2

    def test_rejects_bad_values(self):
        with pytest.raises(ModelError):
            PipeGeometry(0.0, 0.5)
        with pytest.raises(ModelError):
            PipeGeometry(1000.0, -0.5)
        with pytest.raises(ModelError):
            PipeGeometry(1000.0, 0.5, roughness_m=-1e-6)
        with pytest.raises(ModelError):
            PipeGeometry(1000.0, 0.5, slope=1.0)

    def test_rejects_nan_roughness(self):
        # NaN fails every comparison, so a plain "< 0" test let it through
        # and the Chen friction factor came out NaN
        with pytest.raises(ModelError, match="roughness"):
            PipeGeometry(1000.0, 0.5, roughness_m=math.nan)


class TestNetwork:
    def test_build_and_lookup(self):
        net = make_net()
        assert list(net.pipes()) == ["p0"]
        assert net.pipes()["p0"].geometry.length_m == 1000.0
        assert list(net.of_kind(ElementKind.VALVE)) == ["v0"]

    def test_rejects_duplicates(self):
        with pytest.raises(ModelError):
            Network.build([Node("a"), Node("a")], [])
        nodes = [Node("a"), Node("b")]
        dup = Element("x", ElementKind.VALVE, "a", "b")
        with pytest.raises(ModelError):
            Network.build(nodes, [dup, dup])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ModelError):
            Network.build([Node("a")], [Element("x", ElementKind.VALVE, "a", "zz")])

    def test_pipe_needs_geometry(self):
        nodes = [Node("a"), Node("b")]
        with pytest.raises(ModelError):
            Element("p", ElementKind.PIPE, "a", "b", None)
        with pytest.raises(ModelError):
            Element("v", ElementKind.VALVE, "a", "b", PipeGeometry(1.0, 1.0))

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            Element("v", ElementKind.VALVE, "a", "a")


class TestStateFrame:
    def test_requires_timezone(self):
        with pytest.raises(ModelError):
            StateFrame(datetime(2026, 1, 1), {}, {}, {}, {})

    def test_rejects_nonpositive_pressure(self):
        with pytest.raises(ModelError):
            StateFrame(datetime(2026, 1, 1, tzinfo=UTC), {"n0": 0.0}, {}, {}, {})



def test_normal_density_band():
    validate_normal_density(0.85)
    with pytest.raises(ModelError):
        validate_normal_density(0.4)
    with pytest.raises(ModelError):
        validate_normal_density(1.4)


def test_diagnostics_as_dict():
    diag = Diagnostics()
    diag.z_clamped = 2
    diag.time_gaps = 4
    assert diag.as_dict()["z_clamped"] == 2
    assert diag.as_dict()["time_gaps"] == 4
    assert set(diag.as_dict()) == {
        "missing_data",
        "missing_valve_state",
        "missing_resistor_pressure",
        "z_clamped",
        "friction_out_of_validity",
        "time_gaps",
    }
