"""Capture golden sha256 digests of the model layer's outputs.

Run this against a known-good revision to (re)generate the digest table
pinned in ``tests/test_model_goldens.py``::

    PYTHONPATH=src python tools/capture_model_goldens.py

The cases are Figure-8 sized: a :class:`WaveletNeuralPredictor` fitted
on 200 LHS training configurations of the Table 2 space (9 encoded
parameters, 128-sample interval-model CPI traces of ``gcc``), and a
bootstrap :class:`WaveletPredictorEnsemble` on a subset of them.  The
digests cover predicted traces, ``split_importance()`` and every
regression-tree split record, so any drift in tree growth, RBF unit
extraction or the GCV ridge solve is caught bit for bit.
"""

import hashlib
import json
import struct
import sys

import numpy as np

from repro.core.predictor import WaveletNeuralPredictor, WaveletPredictorEnsemble
from repro.dse.lhs import sample_test_configs, sample_train_configs
from repro.dse.space import paper_design_space
from repro.uarch.interval_model import simulate_interval_batch
from repro.workloads.spec2000 import get_benchmark

BENCHMARK = "gcc"
N_TRAIN = 200
N_TEST = 50
N_SAMPLES = 128
ENSEMBLE_TRAIN = 64
ENSEMBLE_MEMBERS = 3


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def _splits_digest(predictor) -> str:
    """Digest of every split record of every coefficient model's tree."""
    h = hashlib.sha256()
    for idx in sorted(predictor.models_):
        h.update(struct.pack("<q", idx))
        for rec in predictor.models_[idx].tree_.splits:
            h.update(struct.pack("<qqqdd", rec.position, rec.depth,
                                 rec.feature, rec.threshold,
                                 rec.improvement))
    return h.hexdigest()


def fig8_case():
    """``(X_train, traces_train, X_test)`` for the fig8-sized case."""
    space = paper_design_space()
    workload = get_benchmark(BENCHMARK)
    train = sample_train_configs(space, N_TRAIN, seed=0)
    test = sample_test_configs(space, N_TEST, seed=1)
    traces = simulate_interval_batch(workload, train, n_samples=N_SAMPLES).cpi
    return space.encode_many(train), np.asarray(traces), space.encode_many(test)


def compute_digests() -> dict:
    """Fit the golden cases and return ``{label: sha256 hexdigest}``."""
    X, traces, X_test = fig8_case()
    model = WaveletNeuralPredictor().fit(X, traces)
    importance = model.split_importance()
    ens = WaveletPredictorEnsemble(n_members=ENSEMBLE_MEMBERS, seed=0).fit(
        X[:ENSEMBLE_TRAIN], traces[:ENSEMBLE_TRAIN])
    mean, std = ens.predict_with_std(X_test)
    return {
        "predictor.predict_test": _sha(model.predict(X_test)),
        "predictor.predict_train": _sha(model.predict(X)),
        "predictor.split_importance": _sha(importance["order"],
                                           importance["frequency"]),
        "predictor.splits": _splits_digest(model),
        "ensemble.predict_with_std": _sha(mean, std),
        "ensemble.splits": hashlib.sha256("".join(
            _splits_digest(m) for m in ens.members_).encode()).hexdigest(),
    }


def main():
    table = compute_digests()
    for label, digest in table.items():
        sys.stderr.write(f"{label}: {digest}\n")
    json.dump(table, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
