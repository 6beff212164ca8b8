"""Golden digests of the model layer's outputs.

Pins sha256 digests of a Figure-8 sized :class:`WaveletNeuralPredictor`
(200 x 9 encoded LHS configurations, 128-sample CPI traces) and a
bootstrap :class:`WaveletPredictorEnsemble`: predicted traces,
``split_importance()`` and every regression-tree split record.  The
digests were captured from the per-node tree-growth code, so any drift
in tree growth, RBF unit extraction or the GCV ridge solve fails here.

Regenerate the table with ``tools/capture_model_goldens.py`` after an
*intended* behaviour change.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import capture_model_goldens  # noqa: E402

GOLDEN_DIGESTS = {
    "predictor.predict_test":
        "4b6b5cbf20fb8661213c36b545448bf2112564cc7a85dbfc5b95bfb31bea5a68",
    "predictor.predict_train":
        "6b7e8a1650a42bb6a28327c5a0938073998f8a37bce56c23f5e38d0cdc2a374d",
    "predictor.split_importance":
        "b6892795d930ef4b2b570d24df16f84482b0732a352d8c499f83051f2ec95b30",
    "predictor.splits":
        "6b3eddd4c4a11276191ab0e4ec196badd4a42c25dd5d214ed2e2c96213e52355",
    "ensemble.predict_with_std":
        "8d9492f9a744aca4eb67bfc7c3736b7c9fe9c249678b774ec7422ae94dcdd3bb",
    "ensemble.splits":
        "d3c7e2fe3224e665f10666ad32bbbfc00c61c3efc201aac4bde40540003ea95d",
}


def test_model_outputs_match_golden_digests():
    assert capture_model_goldens.compute_digests() == GOLDEN_DIGESTS
