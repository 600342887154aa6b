"""The package namespace: each public name is declared once, in its module."""

import homsim
from homsim import bath, dynamics, interference, trajectories


def test_all_joins_the_modules_lists():
    assert homsim.__all__ == [*bath.__all__, *dynamics.__all__,
                              *interference.__all__, *trajectories.__all__]


def test_every_name_once_and_resolved():
    assert len(set(homsim.__all__)) == len(homsim.__all__)
    for module in (bath, dynamics, interference, trajectories):
        for name in module.__all__:
            assert getattr(homsim, name) is getattr(module, name), name


def test_streaming_api_exported():
    for name in ("Selection", "read_blocks", "simulate_chunks"):
        assert name in homsim.__all__


def test_no_sampler_from_a_callers_generator():
    # records come only from simulate_chunks and the package's own streams
    for namespace in (homsim, trajectories):
        assert not [name for name in dir(namespace)
                    if name.startswith("sample_")]
