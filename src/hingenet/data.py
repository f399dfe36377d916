"""Seeded synthetic image classification task.

Each class is a Gaussian blob at its own position; samples are the class
template plus per-sample Gaussian noise. Everything is regenerated
bit-identically from (seed, classes, counts, resolution), so no files are
involved; this synthetic task is the only data source.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

NOISE_SIGMA = 0.3
BLOB_SIGMA_FRACTION = 0.15  # blob width relative to image height


class DatasetSizeError(ValueError):
    """numpy refused an array of the dataset; `size` names what sized it
    (input, the image resolution; classes, n_train or n_test)."""

    def __init__(self, size: str, reason: Exception):
        super().__init__(f"numpy cannot allocate the dataset ({reason})")
        self.size = size


@contextmanager
def _sized_by(size: str):
    try:
        yield
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an index holds
        raise DatasetSizeError(size, exc) from exc


def _blob_centers(classes: int, h: int, w: int) -> np.ndarray:
    """Spread class centers over a sqrt-grid of cell midpoints."""
    side = int(np.ceil(np.sqrt(classes)))
    r, c = np.divmod(np.arange(classes), side)
    return np.stack(((r + 0.5) * h / side, (c + 0.5) * w / side), axis=1)


def class_templates(classes: int, channels: int, h: int, w: int) -> np.ndarray:
    """(classes, channels, h, w) noiseless prototypes, peak value 1."""
    with _sized_by("input"):  # the pixel grid and one sample, before anything per class
        yy, xx = np.mgrid[0:h, 0:w]
        np.empty((channels, h, w))  # numpy refuses a sample too large here
    with _sized_by("classes"):
        centers = _blob_centers(classes, h, w)
        sigma = BLOB_SIGMA_FRACTION * h
        cy, cx = centers[:, 0, None, None], centers[:, 1, None, None]
        blobs = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
        out = np.empty((classes, channels, h, w), dtype=np.float64)
        out[...] = blobs[:, None]  # same pattern on every channel
    return out


@dataclass
class SyntheticDataset:
    seed: int
    classes: int
    n_train: int
    n_test: int
    channels: int = 1
    height: int = 16
    width: int = 16
    x_train: np.ndarray = field(init=False, repr=False)
    y_train: np.ndarray = field(init=False, repr=False)
    x_test: np.ndarray = field(init=False, repr=False)
    y_test: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        templates = class_templates(self.classes, self.channels, self.height, self.width)
        rng = np.random.default_rng(self.seed)
        with _sized_by("n_train"):
            self.x_train, self.y_train = self._render(templates, self.n_train, rng)
        with _sized_by("n_test"):
            self.x_test, self.y_test = self._render(templates, self.n_test, rng)
        # Standardize with train-split statistics (no batch norm in the nets,
        # so well-conditioned inputs matter).
        mean = self.x_train.mean()
        std = self.x_train.std()
        self.x_train = (self.x_train - mean) / std
        self.x_test = (self.x_test - mean) / std

    def _render(self, templates, n, rng):
        labels = np.arange(n) % self.classes  # class-balanced, round-robin
        noise = rng.normal(0.0, NOISE_SIGMA,
                           size=(n, self.channels, self.height, self.width))
        return templates[labels] + noise, labels.astype(np.int64)
