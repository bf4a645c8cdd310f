"""Reference classifier used to audit corpora and generated samples.

A plainly trained MLP over a corpus's train split. It exists to answer
two questions independently of the main pipeline: are the corpus classes
separable at all, and do generated samples land on the class they were
conditioned on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dddr.classifier import ClassifierDims, init_classifier, loss_ce, predict
from dddr.corpus import Corpus
from dddr.optim import adam, apply_gradient_step
from dddr.params import ParamSet
from dddr.rng import stream
from dddr.tensor import evaluate_with_gradients


@dataclass
class Oracle:
    params: ParamSet
    n_classes: int
    holdout_accuracy: float

    def classify(self, images: np.ndarray) -> np.ndarray:
        return predict(self.params, images)

    def class_rate(self, images: np.ndarray, label: int) -> float:
        """Fraction of images argmax-classified to `label`."""
        if images.shape[0] == 0:
            raise ValueError("class_rate: empty image batch")
        return float(np.mean(self.classify(images) == label))


def train_oracle(
    corpus: Corpus,
    seed: int = 0,
    epochs: int = 60,
    batch: int = 64,
    lr: float = 1e-3,
    holdout_fraction: float = 0.2,
) -> Oracle:
    """Train until done; reports held-out accuracy rather than targeting one."""
    n_classes = int(corpus.labels.max()) + 1 if len(corpus) else 0
    if n_classes < 2:
        raise ValueError("train_oracle: need at least 2 classes")
    flat = corpus.images.reshape(len(corpus), -1)
    rng = stream(seed, "oracle")
    order = rng.permutation(len(corpus))
    n_hold = max(1, int(round(holdout_fraction * len(corpus))))
    hold, train = order[:n_hold], order[n_hold:]

    dims = ClassifierDims(input_dim=flat.shape[1], n_classes=n_classes)
    params = init_classifier(dims, seed=int(rng.integers(0, 2**31)), include_projection=False)
    opt = adam(lr)
    for _ in range(epochs):
        epoch_order = rng.permutation(train)
        for start in range(0, epoch_order.size, batch):
            idx = epoch_order[start : start + batch]

            def objective(leaves):
                return loss_ce(leaves, flat[idx], corpus.labels[idx])

            _, grads = evaluate_with_gradients(objective, params)
            params = apply_gradient_step(params, grads, opt)

    holdout_acc = float(np.mean(predict(params, flat[hold]) == corpus.labels[hold]))
    return Oracle(params=params, n_classes=n_classes, holdout_accuracy=holdout_acc)
