import pytest

from groupoidlab import checks, generators


@pytest.fixture(scope="session")
def klein_cross():
    return generators.klein_cross()


@pytest.fixture(scope="session")
def s3():
    return generators.s3_point()


@pytest.fixture(scope="session")
def s3_a3():
    return generators.s3_a3_bundle()


@pytest.fixture(scope="session")
def pair2():
    return generators.pair_groupoid(2)


@pytest.fixture(scope="session")
def corpus40():
    """The first forty corpus instances with the standard budget schedule."""
    return [(seed, generators.random_groupoid(seed, 1 + seed % 60))
            for seed in range(40)]


@pytest.fixture(scope="session")
def corpus200():
    """The 200 instances of check --corpus --seed 0 --count 200."""
    return [(seed, generators.random_groupoid(seed, checks.corpus_budget(seed)))
            for seed in range(200)]


@pytest.fixture(scope="session")
def abelian_family():
    """The duality family's groups: every abelian group of order <= 64."""
    return [a for n in range(1, 65) for _, a in checks.abelian_groups_of_order(n)]
