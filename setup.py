"""Packaging for the memory-hierarchy predictability reproduction.

The execution environment has no network and no ``wheel`` package, so PEP 660
editable installs are unavailable; keeping the metadata in ``setup.py`` lets
``pip install -e .`` fall back to ``setup.py develop``.

The mini-C benchmark programs under ``repro/benchmarks/sources/*.mc`` are
data files read through :mod:`importlib.resources` at runtime
(:meth:`repro.benchmarks.suite.Benchmark.source`), so they must ship inside
the package via ``package_data`` — not only in the source tree.
"""

from setuptools import find_namespace_packages, setup

setup(
    name="repro-memory-hierarchies",
    version="0.1.0",
    description=(
        "Reproduction of 'Influence of Memory Hierarchies on Predictability "
        "for Time Constrained Embedded Software' (Wehmeyer & Marwedel, 2005)"
    ),
    python_requires=">=3.9",
    install_requires=["numpy"],
    package_dir={"": "src"},
    packages=find_namespace_packages("src"),
    package_data={"repro.benchmarks": ["sources/*.mc"]},
    include_package_data=True,
    entry_points={
        "console_scripts": [
            "repro-cc = repro.cli:main",
            "repro-gen = repro.gen.cli:main",
            "repro-experiments = repro.experiments.runner:main",
            "repro-serve = repro.serve.cli:main",
            "repro-serve-load = repro.serve.loadgen:main",
        ],
    },
)
