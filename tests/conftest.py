import pathlib

import pytest

from detforge import load_dataset, load_detections

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture()
def tiny_dataset():
    return load_dataset(DATA / "tiny.json")


@pytest.fixture()
def mixed_dataset():
    return load_dataset(DATA / "eval_mixed_ann.json")


@pytest.fixture()
def mixed_detections():
    return list(load_detections(DATA / "eval_mixed_dets.json").detections)
