"""The result records are immutable NamedTuples: no field can be set."""

from __future__ import annotations

import pytest

from threeweight.code import simplex
from threeweight.feasibility import feasibility_report, kn_witness, load_annotations
from threeweight.swrg import coset_graph, is_s_swrg, tss_check
from threeweight.transform import three_weight_solve


def _records():
    code = simplex(2, 3)
    graph = coset_graph(code)
    annotated = next(c for c in feasibility_report(2, 1, 20) if c.annotation is not None)
    return {
        "WeightDistribution": code.weight_distribution(),
        "MultiplicityType": code.is_projective()[1],
        "Annotation": next(iter(load_annotations().values())),
        "Candidate": annotated,
        "KnWitness": kn_witness(1),
        "TssInstance": tss_check(graph),
        "SwrgResult": is_s_swrg(graph, 3),
        "ThreeWeightSolution": three_weight_solve(8, 4, 2, 4, 6),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_setting_any_field_raises(name):
    record = RECORDS[name]
    assert type(record).__name__ == name and isinstance(record, tuple)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # a NamedTuple compares equal to the plain tuple of its fields
    assert record == tuple(getattr(record, f) for f in record._fields)
