"""Legacy setup shim: the environment has no `wheel` package, so editable
installs go through `setup.py develop` (pip --no-use-pep517)."""
from setuptools import find_packages, setup

setup(
    name="repro-pdtl",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={
        # the optional compiled kernel tier (core/kernels_cffi.py, which
        # also needs a C compiler); without it the dispatch layer falls back
        # to the always-available numpy tier (see core/kernel_backend.py)
        "compiled": ["cffi"],
    },
)
