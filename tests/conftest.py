import sys
from pathlib import Path

import pytest

from akhodge import catalog, model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def entries():
    return {key: catalog.get(key) for key in catalog.keys()}


@pytest.fixture(scope="session")
def cc_entries(entries):
    """Constant-coefficient unitary entries (theorem-mode catalog)."""
    return {k: e for k, e in entries.items()
            if e.spec.constant_coefficient and
            e.spec.unitary_scale is not None}


@pytest.fixture(scope="session")
def ladder_dsl():
    """The benchmark's H(1,2)-type ladder: n -> spec DSL (perfbench is read,
    never changed)."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from workloads import ladder_spec
    return ladder_spec


@pytest.fixture(scope="session")
def ladder(ladder_dsl):
    """n -> a freshly parsed ladder spec."""
    return lambda n: model.parse_spec(ladder_dsl(n))
