import random

import pytest

from bottcoh import validate_tower


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        action="store",
        type=int,
        default=20260811,
        help="seed for randomized property tests",
    )


@pytest.fixture
def seed(request):
    return request.config.getoption("--seed")


@pytest.fixture
def rng(seed):
    return random.Random(seed)


def mod_label(mod):
    """Test id of a ring's modulus: Z for 0, Z/n for n."""
    return f"Z/{mod}" if mod else "Z"


def random_tower(rng, max_height=4, max_dim=3, max_entry=3):
    m = rng.randint(1, max_height)
    stages = []
    for i in range(1, m + 1):
        n = rng.randint(1, max_dim)
        rows = [
            [rng.randint(-max_entry, max_entry) for _ in range(i - 1)]
            for _ in range(n)
        ]
        stages.append((n, rows))
    return validate_tower(stages)


def small_tower_corpus():
    """Concrete towers of total complex dimension <= 4 (real dimension <= 8)."""
    from bottcoh import bott_tower_3, hirzebruch, product_tower

    towers = [
        product_tower((1,)),
        product_tower((2,)),
        product_tower((3,)),
        product_tower((4,)),
        product_tower((1, 1)),
        product_tower((1, 2)),
        product_tower((2, 2)),
        product_tower((1, 1, 1)),
        product_tower((1, 1, 1, 1)),
    ]
    towers += [hirzebruch(a) for a in range(-3, 4)]
    towers += [
        validate_tower([(2, []), (1, [[a]])]) for a in (-2, 1, 3)
    ]
    towers += [
        validate_tower([(1, []), (2, [[1], [3]])]),
        validate_tower([(1, []), (2, [[0], [2]])]),
        validate_tower([(1, []), (3, [[1], [-1], [2]])]),
        validate_tower([(3, []), (1, [[2]])]),
    ]
    towers += [
        bott_tower_3(1, 1, 1),
        bott_tower_3(2, 2, 0),
        bott_tower_3(0, 1, 1),
        bott_tower_3(-1, 2, -2),
        bott_tower_3(1, 0, 0),
    ]
    towers += [
        validate_tower([(1, []), (1, [[1]]), (2, [[1, 0], [0, -1]])]),
        validate_tower([(1, []), (1, [[2]]), (1, [[1, -1]]), (1, [[0, 1, 1]])]),
    ]
    return towers
