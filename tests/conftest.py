import numpy as np
import pytest

from mcdm_weights import CriterionSpec, load_fixture, validate_matrix

import golden


@pytest.fixture(scope="session")
def example1():
    return load_fixture("example1.csv")


@pytest.fixture(scope="session")
def example2():
    return load_fixture("example2.csv")


@pytest.fixture(scope="session")
def example1_golden_matrix():
    """Example 1 built straight from frozen values, bypassing the parser."""
    reverse_coded = ("Hard work", "Security")
    specs = [
        CriterionSpec(name, likert_reverse=name in reverse_coded)
        for name in golden.EXAMPLE1_CRITERIA
    ]
    return validate_matrix(
        np.array(golden.EXAMPLE1_VALUES),
        golden.EXAMPLE1_ALTERNATIVES,
        specs,
    )
