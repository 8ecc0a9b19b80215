"""Package metadata.

Metadata lives here (not in a pyproject [project] table) so that
``pip install -e .`` uses the legacy editable path, which works without the
``wheel`` package in this offline environment.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Emerald reproduction: a unified graphics + GPGPU GPU timing "
        "simulator for SoC systems (ISCA 2019)"
    ),
    author="Emerald Reproduction Authors",
    license="MIT",
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={"dev": ["pytest", "hypothesis"]},
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
