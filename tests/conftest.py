import pytest

import nvreadout as nv
from nvreadout.config import (
    build_olo_spec,
    build_rate_params,
    build_sequence,
    load_config,
)


@pytest.fixture(scope="session")
def cfg():
    """The default run configuration, as every CLI command loads it."""
    return load_config()


@pytest.fixture(scope="session")
def params(cfg):
    return build_rate_params(cfg)


@pytest.fixture(scope="session")
def base_seq(cfg):
    return build_sequence(cfg)


@pytest.fixture(scope="session")
def sweep_snr(cfg, params, base_seq):
    """Default 20x20 traversal grid, SNR metric (the constant-scheme baseline)."""
    return nv.run_sweep(nv.build_baseline_spec(cfg, base_seq, "snr"), params)


@pytest.fixture(scope="session")
def sweep_contrast(cfg, params, base_seq):
    return nv.run_sweep(nv.build_baseline_spec(cfg, base_seq, "contrast"),
                        params)


@pytest.fixture(scope="session")
def olo_spec(cfg, params, base_seq):
    return build_olo_spec(cfg, base_seq, params)


@pytest.fixture(scope="session")
def olo_result(olo_spec, sweep_snr):
    return nv.run_olo(olo_spec, baseline=sweep_snr)
