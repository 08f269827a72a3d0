# All package metadata is in pyproject.toml.  This file only keeps
# `python3 setup.py build_ext --inplace`, the build step of perfbench/run.py,
# working; there is no extension to build.
from setuptools import setup

setup()
