import ctypes

import pytest

from cdu import ddt, make_field, make_quadext


def pytest_addoption(parser):
    parser.addoption("--rowk-so", metavar="PATH",
                     help="run the native kernel from this build of _rowk.c, "
                          "such as one compiled with sanitizers")


def pytest_configure(config):
    path = config.getoption("--rowk-so")
    if path:
        ddt._rowk[:] = [ddt._bind(ctypes.CDLL(path))]


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the sweep's thread pool with a serial stand-in, so that no
    thread is started; returns the list of worker counts asked for."""
    sizes = []

    class Serial:
        def map(self, fn, items):
            return map(fn, items)

    def pool(workers):
        sizes.append(workers)
        return Serial()

    monkeypatch.setattr(ddt, "_pool", pool)
    return sizes


@pytest.fixture(scope="session")
def f2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f8():
    return make_field(2, 3)


@pytest.fixture(scope="session")
def f16():
    return make_field(2, 4)


@pytest.fixture(scope="session")
def f27():
    return make_field(3, 3)


@pytest.fixture(scope="session")
def f25():
    return make_field(5, 2)


@pytest.fixture(scope="session")
def qx2(f2):
    return make_quadext(f2)


@pytest.fixture(scope="session")
def qx4(f4):
    return make_quadext(f4)


@pytest.fixture(scope="session")
def qx8(f8):
    # the paper's q=8 runs use t = 1 (x^2 + x + 1 irreducible over F_8)
    return make_quadext(f8, 1)


@pytest.fixture(scope="session")
def qx16(f16):
    # the paper's q=16 runs use t = w^3
    return make_quadext(f16, f16.parse_elem("w^3"))


@pytest.fixture(scope="session")
def qx27(f27):
    # the paper's q=27 runs use t = w^2
    return make_quadext(f27, f27.parse_elem("w^2"))
