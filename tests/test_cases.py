"""The parameter contract of the case catalog: cases.CASES states each
family's names, defaults and ranges, and every entry point that takes a
(case, params) pair checks them through cases.case_params."""

import re

import numpy as np
import pytest

from nilharm import build_case, fock
from nilharm.cases import CASES, case_params
from nilharm.spherical import SphericalIndex, canonical_polynomials

# one call per entry point, each valid but for its case parameters
ENTRY_POINTS = {
    "build_case": lambda case, params: build_case(case, **params),
    "kx_blocks": fock.kx_blocks,
    "metaplectic_components": lambda case, params: fock.metaplectic_components(case, params, 2),
    "SphericalIndex": lambda case, params: SphericalIndex(case, 1.0, (0,), params),
    "canonical_polynomials": lambda case, params: canonical_polynomials(case, params, 2),
}

# (case, params, the parameter the message names)
BAD_PARAMS = [
    ("VII", {"n": 0}, "n"),
    ("I", {"n": 0}, "n"),
    ("V", {"n": 2}, "n"),
    ("IX", {"n": 1}, "n"),
    ("III", {"k1": 0, "k2": 0}, "k1"),
    ("VIII", {"k": 0}, "k"),
    ("X", {"m": 2, "k": 1}, "m"),
    ("VII", {"n": 2.7}, "n"),
    ("I", {}, "n"),
    ("VII", {"n": True}, "n"),
    ("VIII", {"k": 1, "n": False}, "n"),
    ("IX", {"n": 3.0}, "n"),
]


@pytest.mark.parametrize("case,params,name", BAD_PARAMS,
                         ids=[f"{c}-{'-'.join(f'{k}{v}' for k, v in p.items()) or 'none'}"
                              for c, p, _ in BAD_PARAMS])
def test_every_entry_point_rejects_parameters_outside_the_family(case, params, name):
    # before, these built groups that do not exist (psi 0.955+0.296j on
    # VII(0), 15 components on X(2,1,0)), divided by zero, truncated 2.7
    # to 2 or raised KeyError
    messages = {}
    for entry, call in ENTRY_POINTS.items():
        with pytest.raises(ValueError) as exc:
            call(case, params)
        messages[entry] = str(exc.value)
    assert len(set(messages.values())) == 1, messages
    message = messages["build_case"]
    assert message.startswith(f"case {case} ") and re.search(rf"\b{name}\b", message), message


def test_case_params_fills_defaults_and_returns_python_ints():
    assert case_params("VIII", {"k": np.int64(2)}) == {"k": 2, "n": 0}
    out = case_params("X", {"n": 1, "k": np.int32(1), "m": 3})
    assert list(out) == ["m", "k", "n"] and all(type(v) is int for v in out.values())
    # the table states a default for n in VIII and X only
    assert {c: f.defaults for c, f in CASES.items() if f.defaults} == {"VIII": {"n": 0}, "X": {"n": 0}}
    # the model gets the checked parameters, the spec keeps them as given
    alg = build_case("VIII", k=np.int64(1))
    assert alg.spec.params == {"k": 1} and alg.ops.n == 0


@pytest.mark.parametrize("case,params,message", [
    ("XI", {"n": 1}, "unknown case label 'XI'"),
    ("VII", {"n": 1, "k": 2}, "case VII has no parameter 'k'"),
    ("VIII", {"n": 1}, "case VIII needs the parameter 'k'"),
    ("V", {"n": 3.0}, "case V needs an integer parameter 'n', got 3.0"),
    ("VI", {"n": "4"}, "case VI needs an integer parameter 'n', got '4'"),
    ("I", {"n": True}, "case I needs an integer parameter 'n', got True"),
    ("X", {"m": 3, "k": 1.0}, "case X needs an integer parameter 'k', got 1.0"),
])
def test_case_params_names_what_it_rejects(case, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        case_params(case, params)
