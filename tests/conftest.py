import pytest

from cscx.contact import standard_contact_chart
from cscx.descent import standard_pair
from cscx.lefschetz import standard_cs_chart


@pytest.fixture(scope="session")
def contact2():
    return standard_contact_chart(2)


@pytest.fixture(scope="session")
def contact3():
    return standard_contact_chart(3)


@pytest.fixture(scope="session")
def pair2():
    return standard_pair(2)


@pytest.fixture(scope="session")
def cs_affine2():
    return standard_cs_chart(2, "affine")


@pytest.fixture(scope="session")
def cs_torus2():
    return standard_cs_chart(2, "torus")
