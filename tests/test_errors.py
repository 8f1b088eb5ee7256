import pytest

from lipkit import errors
from lipkit.errors import LipkitError

# PAPER.md's exit codes: 2 parse/validation, 3 graph structure,
# 4 degenerate spectrum, 5 other numeric failure
EXIT_CODES = {
    "LipkitError": 5,
    "NonConvergence": 5,
    "CallbackFailure": 5,
    "CycleDetected": 3,
    "NotAPath": 3,
    "DegenerateSpectrum": 4,
    "ZeroSingular": 4,
    "InvalidInput": 2,
    "GraphInvalid": 2,
    "UnknownActivation": 2,
    "UnknownNode": 2,
    "InvalidParams": 2,
    "NotUnit": 2,
    "GridMismatch": 2,
    "EmptyBand": 2,
    "NotPSD": 2,
    "PlayerCountTooLarge": 2,
    "DegenerateWeights": 2,
    "NegativeShapley": 2,
    "NonBracketable": 2,
    "NotSkew": 2,
    "NotSimplex": 2,
    "OrderOverflow": 2,
}


def _error_classes(cls=LipkitError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_exit_code_is_pinned(cls):
    assert getattr(errors, cls.__name__) is cls
    assert cls.exit_code == EXIT_CODES[cls.__name__]


def test_every_pinned_class_exists():
    assert {cls.__name__ for cls in _error_classes()} == set(EXIT_CODES)
