"""Setuptools shim.

The environment ships an older setuptools without the ``wheel`` package,
so PEP 517 editable installs fail with ``invalid command 'bdist_wheel'``.
This setup.py enables the legacy editable install path::

    pip install -e . --no-build-isolation --no-use-pep517

numpy is a hard dependency: the bit-sliced batch kernel
(``repro.engine.batch_kernel``) needs ``numpy.bitwise_count``, new in
numpy 2.0.
"""

from setuptools import setup

setup(install_requires=["numpy>=2.0"])
